package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eurosys26p57/chimera/internal/chaos"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/telemetry"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// TestMetricsLint is the CI metrics-lint gate (scripts/check.sh runs it by
// name): every family a fresh server registers must carry a conforming
// chimera_* name and non-empty help text. A new metric that violates the
// naming law fails here before it ever reaches a dashboard.
func TestMetricsLint(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	fams := srv.Metrics().Families()
	if len(fams) < 20 {
		t.Fatalf("only %d metric families registered; expected the full catalogue", len(fams))
	}
	for _, f := range fams {
		if !telemetry.ValidName(f.Name) {
			t.Errorf("metric %q violates the chimera_[a-z_]+ naming law", f.Name)
		}
		if strings.TrimSpace(f.Help) == "" {
			t.Errorf("metric %q has no help text", f.Name)
		}
	}
}

// scrape GETs /metrics from the handler and parses the exposition into
// sample name (with label set) -> value, verifying basic format on the way.
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in line %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// postRun POSTs one /run and decodes its answer.
func postRun(t *testing.T, ts *httptest.Server, body runHTTPRequest) (RunResult, *http.Response) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run status %d", resp.StatusCode)
	}
	var res RunResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res, resp
}

// TestMetricsEndpointCoversAllLayers drives a rewrite, a resolver-on
// rewrite, two runs and one fuzzing campaign through the HTTP API, then
// asserts /metrics carries samples from every layer — service lifecycle,
// cache, stages, kernel, emulator block engine, resolver, fuzzer — and
// that /stats agrees exactly with the scraped values.
func TestMetricsEndpointCoversAllLayers(t *testing.T) {
	img := testImages(t, 1)[0]
	fib, err := workload.Fibonacci(10, riscv.RV64GC, true)
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{Workers: 2})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rwBody, _ := json.Marshal(rewriteHTTPRequest{Method: "chbp", Target: "rv64gc", Image: wire(t, img)})
	resp, err := http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(rwBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/rewrite status %d", resp.StatusCode)
	}
	run, resp := postRun(t, ts, runHTTPRequest{Image: wire(t, fib)})
	kern := run.Counters

	// A resolver-on rewrite, and a run of its output so the kernel credits
	// the runtime-rewrite faults the resolver's rows avoid.
	disp, err := workload.BuildDispatch(workload.DispatchParams{
		Name: "metrics-dispatch", Arms: 4, VecArms: 2, Rounds: 8,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	rwBody, _ = json.Marshal(rewriteHTTPRequest{Method: "chbp", Target: "rv64gc", Resolve: true, Image: wire(t, disp)})
	rresp, err := http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(rwBody))
	if err != nil {
		t.Fatal(err)
	}
	var resolved RewriteResult
	err = json.NewDecoder(rresp.Body).Decode(&resolved)
	rresp.Body.Close()
	if err != nil || rresp.StatusCode != http.StatusOK {
		t.Fatalf("resolver-on /rewrite status %d: %v", rresp.StatusCode, err)
	}
	run2, _ := postRun(t, ts, runHTTPRequest{ISA: "rv64gc", Image: resolved.ImageBytes})
	kern.Add(run2.Counters)

	// One finished campaign: its totals fold in before its done channel
	// closes.
	id, fresp := postFuzz(t, ts, fuzzHTTPRequest{Image: fuzzImageWire(t), MaxExecs: 200, Seed: 3})
	if fresp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /fuzz status %d", fresp.StatusCode)
	}
	fc, ok := srv.fuzz.get(id)
	if !ok {
		t.Fatalf("campaign %s not tracked", id)
	}
	select {
	case <-fc.done:
	case <-time.After(60 * time.Second):
		t.Fatal("campaign never finished")
	}

	// /run is traced too: its trace must show the execution pipeline.
	runTraceID := resp.Header.Get("X-Chimera-Trace")
	if runTraceID == "" {
		t.Fatal("/run response carries no X-Chimera-Trace header")
	}
	tresp, err := http.Get(ts.URL + "/trace/" + runTraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var runTrace telemetry.TraceJSON
	if err := json.NewDecoder(tresp.Body).Decode(&runTrace); err != nil {
		t.Fatal(err)
	}
	if runTrace.Name != "run" {
		t.Errorf("/run trace name %q", runTrace.Name)
	}
	hasExec := false
	for _, sp := range runTrace.Spans {
		if sp.Name == "run_exec" && sp.DurationUS >= 0 {
			hasExec = true
		}
	}
	if !hasExec {
		t.Errorf("/run trace missing run_exec span: %+v", runTrace.Spans)
	}

	m := scrape(t, srv.Handler())

	// One sample per layer proves the wiring end to end.
	wantPositive := []string{
		"chimera_requests_accepted_total",                   // service lifecycle
		"chimera_requests_completed_total",                  //
		"chimera_cache_misses_total",                        // rewrite cache
		`chimera_request_seconds_count{endpoint="rewrite"}`, // latency vec
		`chimera_request_seconds_count{endpoint="run"}`,     //
		`chimera_method_seconds_count{method="chbp"}`,       //
		`chimera_stage_seconds_count{stage="rewrite"}`,      // pipeline stages
		`chimera_stage_seconds_count{stage="cache_lookup"}`, //
		`chimera_stage_seconds_count{stage="queue_wait"}`,   //
		`chimera_stage_seconds_count{stage="run_exec"}`,     //
		`chimera_stage_seconds_count{stage="decode"}`,       //
		"chimera_kernel_cycles_total",                       // kernel accounting
		"chimera_guest_runs_total",                          // emulator
		"chimera_guest_instret_total",                       //
		"chimera_block_dispatches_total",                    // block engine
		"chimera_block_retired_total",                       //
		"chimera_kernel_rewrite_faults_avoided_total",       // resolver, run side
		"chimera_resolve_rewrites_total",                    // resolver, rewrite side
		"chimera_fuzz_execs_total",                          // fuzzer
		"chimera_uptime_seconds",                            // gauges
		"chimera_workers",                                   //
	}
	for _, name := range wantPositive {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}

	// /stats reads the same registry, store counters and totals: the two
	// views must agree sample for sample.
	st := srv.Stats()
	pairs := append(storageCounterPairs(st), totalsCounterPairs(st, kern)...)
	pairs = append(pairs, []statPair{
		{"chimera_requests_accepted_total", float64(st.Accepted)},
		{"chimera_requests_completed_total", float64(st.Completed)},
		{"chimera_worker_panics_total", float64(st.Faults.Panics)},
		{"chimera_degradations_total", float64(st.Faults.Degradations)},
		{`chimera_request_seconds_count{endpoint="rewrite"}`, float64(st.Endpoints["rewrite"].Count)},
		{`chimera_request_seconds_count{endpoint="run"}`, float64(st.Endpoints["run"].Count)},
	}...)
	checkPairs(t, m, pairs)
	if st.Emulator.Runs != 2 || st.Resolve.Rewrites != 1 || st.Fuzz.Campaigns != 1 {
		t.Errorf("/stats runs %d, resolve rewrites %d, campaigns %d; want 2, 1, 1",
			st.Emulator.Runs, st.Resolve.Rewrites, st.Fuzz.Campaigns)
	}
	if snap := fc.c.Snapshot(); st.Fuzz.Execs != snap.Execs || st.Fuzz.Edges != uint64(snap.Edges) {
		t.Errorf("/stats fuzz execs %d, edges %d; the campaign reports %d, %d",
			st.Fuzz.Execs, st.Fuzz.Edges, snap.Execs, snap.Edges)
	}
	if len(st.Stages) == 0 {
		t.Error("/stats stages block empty; stage histograms not surfaced")
	}
}

// statPair is one /metrics sample name and the /stats value reporting the
// same count.
type statPair struct {
	name string
	stat float64
}

// storageCounterPairs pairs every cache counter sample with its /stats
// field.
func storageCounterPairs(st Stats) []statPair {
	return []statPair{
		{"chimera_cache_hits_total", float64(st.Cache.Hits)},
		{"chimera_cache_misses_total", float64(st.Cache.Misses)},
		{"chimera_cache_evictions_total", float64(st.Cache.Evictions)},
		{"chimera_cache_corrupt_evictions_total", float64(st.Cache.CorruptEvictions)},
	}
}

// totalsCounterPairs pairs every run, resolver and campaign counter sample
// with its /stats field. /stats carries no kernel block, so the
// chimera_kernel_* samples pair with kern, the sum of the counters every
// /run answered with (faults avoided is also /stats resolve.faults_avoided).
func totalsCounterPairs(st Stats, kern kernel.Counters) []statPair {
	e, b, r, f := st.Emulator, st.Emulator.Blocks, st.Resolve, st.Fuzz
	return []statPair{
		{"chimera_guest_runs_total", float64(e.Runs)},
		{"chimera_guest_instret_total", float64(e.Instret)},
		{"chimera_guest_cycles_total", float64(e.Cycles)},

		{"chimera_blocks_built_total", float64(b.Built)},
		{"chimera_block_hits_total", float64(b.Hits)},
		{"chimera_block_invalidations_total", float64(b.Invalidations)},
		{"chimera_block_dispatches_total", float64(b.Dispatches)},
		{"chimera_block_retired_total", float64(b.Retired)},
		{"chimera_emu_trace_built_total", float64(b.TracesBuilt)},
		{"chimera_emu_trace_hits_total", float64(b.TraceHits)},
		{"chimera_emu_trace_retired_total", float64(b.TraceRetired)},
		{"chimera_emu_trace_side_exits_total", float64(b.SideExits)},
		{"chimera_emu_trace_pic_hits_total", float64(b.PICHits)},
		{"chimera_emu_trace_pic_misses_total", float64(b.PICMisses)},

		{"chimera_kernel_fault_recoveries_total", float64(kern.FaultRecoveries)},
		{"chimera_kernel_traps_total", float64(kern.Traps)},
		{"chimera_kernel_checks_total", float64(kern.Checks)},
		{"chimera_kernel_runtime_rewrites_total", float64(kern.RuntimeRewrites)},
		{"chimera_kernel_rewrite_faults_avoided_total", float64(kern.RewriteFaultsAvoided)},
		{"chimera_kernel_spurious_faults_total", float64(kern.SpuriousFaults)},
		{"chimera_kernel_syscalls_total", float64(kern.Syscalls)},
		{"chimera_kernel_signals_total", float64(kern.SignalsTaken)},
		{"chimera_kernel_cycles_total", float64(kern.KernelCycles)},

		{"chimera_resolve_rewrites_total", float64(r.Rewrites)},
		{`chimera_resolve_sites_total{tier="high"}`, float64(r.SitesHigh)},
		{`chimera_resolve_sites_total{tier="medium"}`, float64(r.SitesMedium)},
		{`chimera_resolve_sites_total{tier="low"}`, float64(r.SitesLow)},
		{`chimera_resolve_sites_total{tier="unresolved"}`, float64(r.SitesUnresolved)},
		{`chimera_resolve_targets_total{tier="high"}`, float64(r.TargetsHigh)},
		{`chimera_resolve_targets_total{tier="medium"}`, float64(r.TargetsMedium)},
		{`chimera_resolve_targets_total{tier="low"}`, float64(r.TargetsLow)},
		{"chimera_resolve_recovered_insts_total", float64(r.RecoveredInsts)},
		{"chimera_resolve_avoided_rewrites_total", float64(r.AvoidedRewrites)},
		{"chimera_kernel_rewrite_faults_avoided_total", float64(r.FaultsAvoided)},

		{"chimera_fuzz_campaigns_total", float64(f.Campaigns)},
		{"chimera_fuzz_execs_total", float64(f.Execs)},
		{"chimera_fuzz_crashes_unique_total", float64(f.Crashes)},
		{"chimera_fuzz_hangs_total", float64(f.Hangs)},
		{"chimera_fuzz_corpus_entries_total", float64(f.Corpus)},
		{"chimera_fuzz_edges_total", float64(f.Edges)},
	}
}

// checkPairs requires each pair's sample in the scrape m to exist and
// equal the reported value.
func checkPairs(t *testing.T, m map[string]float64, pairs []statPair) {
	t.Helper()
	for _, p := range pairs {
		got, ok := m[p.name]
		if !ok {
			t.Errorf("/metrics has no %s sample", p.name)
		} else if got != p.stat {
			t.Errorf("/metrics %s = %v but /stats reports %v", p.name, got, p.stat)
		}
	}
}

// jsonKeys returns the top-level JSON keys of v, in order.
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if _, err := dec.Token(); err != nil { // {
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestStatsCacheKeys pins the /stats cache block's JSON keys and their
// order (CacheStats embeds store.Stats), and checks that /stats carries no
// store block: Stats.Store is for the repo benchmark alone.
func TestStatsCacheKeys(t *testing.T) {
	img := testImages(t, 1)[0]
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	req := &RewriteRequest{Method: "chbp", Target: "rv64gc", Wire: wire(t, img)}
	for i := 0; i < 2; i++ {
		if _, err := srv.Rewrite(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	keys := jsonKeys(t, srv.Stats().Cache)
	want := []string{"hits", "misses", "evictions", "corrupt_evictions", "entries", "bytes", "budget_bytes", "hit_ratio"}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Errorf("/stats cache keys %v, want %v", keys, want)
	}
	if keys := jsonKeys(t, srv.Stats()); slices.Contains(keys, "store") {
		t.Errorf("/stats keys %v include store", keys)
	}
}

// TestStoreStatsMatchCache checks the lookup tally the repo benchmark
// reads (Stats().Store, whose hits over lookups is rewrite-warm's
// store.hit_ratio) against the cache counters across a miss, a hit and a
// CacheCorrupt-forced corrupt hit, and both against /metrics.
func TestStoreStatsMatchCache(t *testing.T) {
	images := testImages(t, 2)
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	rewrite := func(img *obj.Image, wantHit bool) {
		t.Helper()
		res, err := srv.Rewrite(context.Background(), &RewriteRequest{Method: "chbp", Target: "rv64gc", Wire: wire(t, img)})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit != wantHit {
			t.Fatalf("cache_hit %t, want %t", res.CacheHit, wantHit)
		}
	}
	rewrite(images[0], false) // miss
	rewrite(images[0], true)  // hit
	// Requests run one at a time, so the worker has read the injector
	// before the next request swaps it in.
	srv.cfg.Chaos = chaosCfg(0, chaos.CacheCorrupt)
	rewrite(images[1], false) // miss; the stored entry is corrupted
	rewrite(images[1], false) // corrupt hit: evicted, counted as a miss

	st := srv.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 3 || st.Cache.CorruptEvictions != 1 {
		t.Fatalf("cache hits %d, misses %d, corrupt evictions %d; want 1, 3, 1",
			st.Cache.Hits, st.Cache.Misses, st.Cache.CorruptEvictions)
	}
	if st.Store.MemHits != st.Cache.Hits || st.Store.Misses != st.Cache.Misses || st.Store.DiskHits != 0 {
		t.Errorf("Stats().Store %+v, want mem hits %d, misses %d and no disk hits",
			st.Store, st.Cache.Hits, st.Cache.Misses)
	}
	checkPairs(t, scrape(t, srv.Handler()), storageCounterPairs(st))
}

// TestStatsFaultKeys pins the /stats faults block's JSON keys and their
// order. The omitempty last_panic key is absent on a server that has
// isolated no panic.
func TestStatsFaultKeys(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	keys := jsonKeys(t, srv.Stats().Faults)
	want := []string{"panics", "rejects", "degradations", "deadline_exceeded", "budget_stops", "cache_corruptions"}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Errorf("/stats faults keys %v, want %v", keys, want)
	}
}

// TestStatsTotalsKeys pins the JSON keys and their order of the /stats
// blocks copied from the server's totals: emulator, resolve and fuzz.
func TestStatsTotalsKeys(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	st := srv.Stats()
	for _, c := range []struct {
		block string
		v     any
		want  []string
	}{
		{"emulator", st.Emulator, []string{"runs", "instret", "cycles", "run_seconds", "emulated_mips", "blocks",
			"block_hit_ratio", "retired_per_dispatch", "trace_side_exit_rate", "pic_hit_ratio"}},
		{"emulator.blocks", st.Emulator.Blocks, []string{"built", "hits", "invalidations", "dispatches", "retired",
			"traces_built", "trace_hits", "trace_retired", "side_exits", "pic_hits", "pic_misses"}},
		{"resolve", st.Resolve, []string{"rewrites", "sites_high", "sites_medium", "sites_low", "sites_unresolved",
			"targets_high", "targets_medium", "targets_low", "recovered_insts", "avoided_rewrites", "faults_avoided"}},
		{"fuzz", st.Fuzz, []string{"campaigns", "active", "execs", "hangs", "crashes_unique", "corpus_entries", "edges"}},
	} {
		if keys := jsonKeys(t, c.v); strings.Join(keys, ",") != strings.Join(c.want, ",") {
			t.Errorf("/stats %s keys %v, want %v", c.block, keys, c.want)
		}
	}
}

// TestTotalsConcurrent folds runs from several goroutines while others
// scrape /metrics and read /stats: every run is counted exactly once.
func TestTotalsConcurrent(t *testing.T) {
	fib, err := workload.Fibonacci(10, riscv.RV64GC, true)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2})
	defer srv.Shutdown(context.Background())
	const runners, perRunner = 4, 3
	var wg sync.WaitGroup
	instret := make([]uint64, runners)
	for i := 0; i < runners; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perRunner; j++ {
				res, err := srv.Run(context.Background(), &RunRequest{Image: fib})
				if err != nil {
					t.Error(err)
					return
				}
				instret[i] += res.Instret
			}
		}(i)
		go func() {
			defer wg.Done()
			var b bytes.Buffer
			for j := 0; j < perRunner; j++ {
				srv.Metrics().WritePrometheus(&b)
				srv.Stats()
			}
		}()
	}
	wg.Wait()
	var want uint64
	for _, n := range instret {
		want += n
	}
	st := srv.Stats()
	if st.Emulator.Runs != runners*perRunner || st.Emulator.Instret != want {
		t.Errorf("/stats runs %d, instret %d; want %d, %d", st.Emulator.Runs, st.Emulator.Instret, runners*perRunner, want)
	}
	m := scrape(t, srv.Handler())
	if m["chimera_guest_runs_total"] != runners*perRunner || m["chimera_guest_instret_total"] != float64(want) {
		t.Errorf("/metrics runs %v, instret %v; want %d, %d",
			m["chimera_guest_runs_total"], m["chimera_guest_instret_total"], runners*perRunner, want)
	}
}

// TestMetricsCatalogueStable: reading /stats must not change what /metrics
// exposes. Every family is registered with its samples up front, so a
// fresh server's scrape names the same samples before and after a Stats
// call.
func TestMetricsCatalogueStable(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	names := func() []string {
		var out []string
		for name := range scrape(t, srv.Handler()) {
			out = append(out, name)
		}
		sort.Strings(out)
		return out
	}
	before := names()
	srv.Stats()
	after := names()
	if strings.Join(before, "\n") != strings.Join(after, "\n") {
		t.Errorf("/metrics exposed %d samples before a /stats read and %d after", len(before), len(after))
	}
}

// updateCatalogue rewrites testdata/metric_catalogue.txt from the running
// code: go test -run TestMetricCatalogueGolden ./internal/service -update
var updateCatalogue = flag.Bool("update", false, "rewrite testdata/metric_catalogue.txt")

// TestMetricCatalogueGolden pins the metric catalogue: the # HELP and
// # TYPE lines a fresh server exposes must equal
// testdata/metric_catalogue.txt, so adding, dropping or re-describing a
// family shows up as a reviewed diff of that file.
func TestMetricCatalogueGolden(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	var exp bytes.Buffer
	srv.Metrics().WritePrometheus(&exp)
	var got strings.Builder
	for _, line := range strings.Split(exp.String(), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			got.WriteString(line + "\n")
		}
	}
	const path = "testdata/metric_catalogue.txt"
	if *updateCatalogue {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got.String() != string(want) {
		t.Errorf("/metrics catalogue differs from %s; diff the -update output and review it:\n%s",
			path, lineDiff(string(want), got.String()))
	}
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	count := func(s string) map[string]int {
		m := map[string]int{}
		for _, l := range strings.Split(s, "\n") {
			m[l]++
		}
		return m
	}
	w, g := count(want), count(got)
	var out []string
	for l, n := range w {
		if g[l] < n {
			out = append(out, "- "+l)
		}
	}
	for l, n := range g {
		if w[l] < n {
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestTraceEndpoint checks request tracing end to end over HTTP: a traced
// /rewrite answers with an X-Chimera-Trace id whose /trace/{id} JSON shows
// the full pipeline (cache lookup, singleflight, queue wait, one rewrite
// attempt, cache store), and a second identical request's trace records
// the cache hit instead.
func TestTraceEndpoint(t *testing.T) {
	img := testImages(t, 1)[0]
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(rewriteHTTPRequest{Method: "chbp", Target: "rv64gc", Image: wire(t, img)})
	post := func() (string, *http.Response) {
		resp, err := http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/rewrite status %d", resp.StatusCode)
		}
		id := resp.Header.Get("X-Chimera-Trace")
		if id == "" {
			t.Fatal("no X-Chimera-Trace header on traced response")
		}
		return id, resp
	}
	getTrace := func(id string) telemetry.TraceJSON {
		resp, err := http.Get(ts.URL + "/trace/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/trace/%s status %d", id, resp.StatusCode)
		}
		var tr telemetry.TraceJSON
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	coldID, _ := post()
	cold := getTrace(coldID)
	if cold.ID != coldID || cold.Name != "rewrite" {
		t.Fatalf("trace identity: %+v", cold)
	}
	if cold.DurationUS <= 0 {
		t.Error("finished trace has no duration")
	}
	if cold.Attrs["method"] != "chbp" || cold.Attrs["target"] == "" {
		t.Errorf("trace attrs %v, want method/target recorded", cold.Attrs)
	}
	spans := make(map[string]telemetry.SpanJSON, len(cold.Spans))
	count := make(map[string]int, len(cold.Spans))
	for _, sp := range cold.Spans {
		spans[sp.Name] = sp
		count[sp.Name]++
	}
	for _, want := range []string{"decode", "cache_lookup", "singleflight", "queue_wait", "rewrite_attempt", "cache_store", "encode"} {
		if _, ok := spans[want]; !ok {
			t.Errorf("cold rewrite trace missing span %q (got %v)", want, cold.Spans)
		}
	}
	if count["rewrite_attempt"] != 1 {
		t.Errorf("cold rewrite trace has %d rewrite_attempt spans, want 1", count["rewrite_attempt"])
	}
	if spans["cache_lookup"].Attrs["hit"] != "false" {
		t.Errorf("cold lookup span attrs %v, want hit=false", spans["cache_lookup"].Attrs)
	}
	if spans["singleflight"].Attrs["role"] != "leader" {
		t.Errorf("cold singleflight role %v, want leader", spans["singleflight"].Attrs)
	}

	// Second identical request: the trace must show a cache hit and no
	// rewrite attempt.
	hitID, _ := post()
	if hitID == coldID {
		t.Fatal("two requests shared a trace id")
	}
	hit := getTrace(hitID)
	for _, sp := range hit.Spans {
		if sp.Name == "rewrite_attempt" {
			t.Error("cache-hit trace contains a rewrite_attempt span")
		}
		if sp.Name == "cache_lookup" && sp.Attrs["hit"] != "true" {
			t.Errorf("hit lookup span attrs %v, want hit=true", sp.Attrs)
		}
	}

	// Unknown ids 404; the bare prefix 400s.
	if resp, err := http.Get(ts.URL + "/trace/ffffffff-ffffff"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown trace id: status %d, want 404", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/trace/"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bare /trace/: status %d, want 400", resp.StatusCode)
		}
	}
}

// TestTracerRingBound checks the server-side retention bound: with
// TraceCapacity 2, the oldest of three traces is evicted from /trace.
func TestTracerRingBound(t *testing.T) {
	img := testImages(t, 1)[0]
	srv := New(Config{Workers: 1, TraceCapacity: 2})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(rewriteHTTPRequest{Method: "chbp", Target: "rv64gc", Image: wire(t, img)})
	var ids []string
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ids = append(ids, resp.Header.Get("X-Chimera-Trace"))
	}
	statuses := make([]int, len(ids))
	for i, id := range ids {
		resp, err := http.Get(ts.URL + "/trace/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		statuses[i] = resp.StatusCode
	}
	if statuses[0] != http.StatusNotFound {
		t.Errorf("oldest trace survived past capacity: status %d", statuses[0])
	}
	if statuses[1] != http.StatusOK || statuses[2] != http.StatusOK {
		t.Errorf("recent traces not retained: statuses %v", statuses)
	}
}

// TestChaosMetricsExact ties the chaos injector to the registry: every
// injected fault must appear in /metrics with the exact injected count —
// the observability layer may not under- or over-report failures.
func TestChaosMetricsExact(t *testing.T) {
	t.Run("spurious_faults", func(t *testing.T) {
		fib, err := workload.Fibonacci(8, riscv.RV64GC, true)
		if err != nil {
			t.Fatal(err)
		}
		inj := chaosCfg(0, chaos.SpuriousFault)
		srv := New(Config{Workers: 1, Chaos: inj})
		defer srv.Shutdown(context.Background())
		if _, err := srv.Run(context.Background(), &RunRequest{Image: fib}); err != nil {
			t.Fatal(err)
		}
		m := scrape(t, srv.Handler())
		fired := float64(inj.Fired(chaos.SpuriousFault))
		if fired == 0 {
			t.Fatal("spurious-fault injector never fired")
		}
		if got := m["chimera_kernel_spurious_faults_total"]; got != fired {
			t.Errorf("chimera_kernel_spurious_faults_total = %v, injector fired %v", got, fired)
		}
	})

	t.Run("worker_panics", func(t *testing.T) {
		images := testImages(t, 3)
		inj := chaosCfg(0, chaos.RewritePanic)
		srv := New(Config{Workers: 1, Chaos: inj})
		defer srv.Shutdown(context.Background())
		for _, img := range images {
			if _, err := srv.Rewrite(context.Background(), &RewriteRequest{Method: "chbp", Target: "rv64gc", Wire: wire(t, img)}); err != nil {
				t.Fatal(err)
			}
		}
		m := scrape(t, srv.Handler())
		fired := float64(inj.Fired(chaos.RewritePanic))
		if got := m["chimera_worker_panics_total"]; got != fired || got != float64(len(images)) {
			t.Errorf("chimera_worker_panics_total = %v, injector fired %v, requests %d", got, fired, len(images))
		}
		if got := m["chimera_degradations_total"]; got != float64(len(images)) {
			t.Errorf("chimera_degradations_total = %v, want %d", got, len(images))
		}
	})

	t.Run("cache_corruption", func(t *testing.T) {
		img := testImages(t, 1)[0]
		inj := chaosCfg(0, chaos.CacheCorrupt)
		srv := New(Config{Workers: 1, Chaos: inj})
		defer srv.Shutdown(context.Background())
		req := &RewriteRequest{Method: "chbp", Target: "rv64gc", Wire: wire(t, img)}
		// Cold rewrite corrupts its own fresh entry; the second request's
		// lookup must detect exactly one corruption and evict.
		for i := 0; i < 2; i++ {
			if _, err := srv.Rewrite(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		m := scrape(t, srv.Handler())
		if got := m["chimera_cache_corrupt_evictions_total"]; got != 1 {
			t.Errorf("chimera_cache_corrupt_evictions_total = %v, want exactly 1", got)
		}
		if st := srv.Stats(); float64(st.Cache.CorruptEvictions) != m["chimera_cache_corrupt_evictions_total"] {
			t.Errorf("/stats corrupt evictions %d != /metrics %v",
				st.Cache.CorruptEvictions, m["chimera_cache_corrupt_evictions_total"])
		}
	})
}

// TestProfileEndpoint runs a guest with server-side profiling enabled and
// checks /profile reports the per-image hot blocks, and that profiling is a
// 404 when disabled (never silently empty).
func TestProfileEndpoint(t *testing.T) {
	fib, err := workload.Fibonacci(10, riscv.RV64GC, true)
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{Workers: 1, GuestProfile: true})
	defer srv.Shutdown(context.Background())
	res, err := srv.Run(context.Background(), &RunRequest{Image: fib})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/profile?top=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/profile status %d", resp.StatusCode)
	}
	var profs []ImageProfile
	if err := json.NewDecoder(resp.Body).Decode(&profs); err != nil {
		t.Fatal(err)
	}
	if len(profs) != 1 {
		t.Fatalf("profiles for %d images, want 1", len(profs))
	}
	p := profs[0]
	if p.Image != fib.Name {
		t.Errorf("profile image %q, want %q", p.Image, fib.Name)
	}
	// The profiler sees CPU cycles only; res.Cycles adds kernel overhead
	// (syscall/exit charges) on top, so it bounds the profile from above.
	if p.Instret != res.Instret || p.Cycles == 0 || p.Cycles > res.Cycles {
		t.Errorf("profile totals instret=%d cycles=%d, run reported %d/%d",
			p.Instret, p.Cycles, res.Instret, res.Cycles)
	}
	if len(p.Hot) == 0 || p.Hot[0].Rank != 1 || p.Hot[0].Cycles == 0 {
		t.Fatalf("hot block table empty or unranked: %+v", p.Hot)
	}
	if len(p.Hot) > 5 {
		t.Errorf("top=5 returned %d rows", len(p.Hot))
	}
	if len(p.Folded) == 0 || !strings.HasPrefix(p.Folded[0], fib.Name+";") {
		t.Errorf("folded stack lines malformed: %v", p.Folded)
	}

	// Disabled server: /profile is an explicit 404.
	off := New(Config{Workers: 1})
	defer off.Shutdown(context.Background())
	rec := httptest.NewRecorder()
	off.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/profile", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("/profile with profiling off: status %d, want 404", rec.Code)
	}
}
