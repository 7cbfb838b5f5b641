package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"github.com/eurosys26p57/chimera/internal/chaos"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/telemetry"
)

// TestWarmRestartDiskHit is the persistence acceptance scenario: a server
// with a disk store rewrites an image, shuts down, and a NEW server over the
// same directory answers the identical request from the disk tier — no
// rewrite, byte-identical result — with the tier visible in the response,
// the request trace, and the metrics. A follow-up request then hits the
// memory tier, proving the disk hit was promoted.
func TestWarmRestartDiskHit(t *testing.T) {
	img := testImages(t, 1)[0]
	dir := t.TempDir()
	cfg := Config{Workers: 2, StoreDir: dir}
	req := func() *RewriteRequest {
		return &RewriteRequest{Method: "chbp", Target: "rv64gc", Wire: wire(t, img)}
	}

	srv1 := New(cfg)
	cold, err := srv1.Rewrite(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit || cold.Degraded {
		t.Fatalf("first rewrite: hit=%t degraded=%t, want a cold clean rewrite", cold.CacheHit, cold.Degraded)
	}
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restarted process: fresh memory, same disk.
	srv2 := New(cfg)
	defer srv2.Shutdown(context.Background())
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()

	body, _ := json.Marshal(rewriteHTTPRequest{Method: "chbp", Target: "rv64gc", Image: wire(t, img)})
	post := func() (*RewriteResult, string) {
		resp, err := http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/rewrite status %d", resp.StatusCode)
		}
		var res RewriteResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return &res, resp.Header.Get("X-Chimera-Trace")
	}

	warm, traceID := post()
	if !warm.CacheHit || warm.Tier != "disk" {
		t.Fatalf("warm-restart request: hit=%t tier=%q, want a disk-tier hit", warm.CacheHit, warm.Tier)
	}
	if !bytes.Equal(warm.ImageBytes, cold.ImageBytes) {
		t.Fatal("disk-tier hit returned different bytes than the cold rewrite")
	}
	if warm.Stats != cold.Stats {
		t.Fatalf("disk-tier hit lost the rewrite stats: %+v != %+v", warm.Stats, cold.Stats)
	}

	// The trace must show the lookup answered from disk and no rewrite work.
	resp, err := http.Get(ts.URL + "/trace/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace/%s status %d", traceID, resp.StatusCode)
	}
	var tr telemetry.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	var sawLookup bool
	for _, sp := range tr.Spans {
		switch sp.Name {
		case "cache_lookup":
			sawLookup = true
			if sp.Attrs["hit"] != "true" || sp.Attrs["tier"] != "disk" {
				t.Errorf("lookup span attrs %v, want hit=true tier=disk", sp.Attrs)
			}
		case "rewrite_attempt", "singleflight":
			t.Errorf("warm-restart trace contains a %s span; the disk hit should short-circuit", sp.Name)
		}
	}
	if !sawLookup {
		t.Errorf("trace has no cache_lookup span: %v", tr.Spans)
	}

	m := scrape(t, srv2.Handler())
	if got := m[`chimera_store_tier_hits_total{tier="disk"}`]; got != 1 {
		t.Errorf("disk tier hits = %v, want 1", got)
	}
	if got := m[`chimera_stage_seconds_count{stage="rewrite"}`]; got != 0 {
		t.Errorf("restarted server performed %v rewrites, want 0", got)
	}

	// The disk hit was promoted: the next identical request is a memory hit.
	again, _ := post()
	if !again.CacheHit || again.Tier != "memory" {
		t.Fatalf("post-promotion request: hit=%t tier=%q, want a memory-tier hit", again.CacheHit, again.Tier)
	}
	m = scrape(t, srv2.Handler())
	if got := m[`chimera_store_tier_hits_total{tier="memory"}`]; got != 1 {
		t.Errorf("memory tier hits = %v, want 1", got)
	}
}

// TestChaosSoakDisk points the chaos injector at the disk tier — torn
// writes, read bit-flips and ENOSPC — alongside memory-tier corruption and
// rewriter panics, on one server with a persistent store, and asserts the
// transparency oracle: every response is either byte-identical to the
// chaos-free rewrite or a degraded answer carrying the original image.
// Zero wrong-image responses. The memory tier holds about half the working
// set and keys are drawn at random, so lookups fall through to disk.
//
// Runs 120 requests by default; CHIMERA_CHAOS_SOAK=1 raises it to 600
// (scripts/check.sh -run 'TestChaosSoak' matches this test too), and
// CHIMERA_SOAK_SEED picks the seed as it does for TestChaosSoak.
func TestChaosSoakDisk(t *testing.T) {
	n := 120
	if os.Getenv("CHIMERA_CHAOS_SOAK") != "" {
		n = 600
	}
	seed := soakSeed(20260808)

	// Chaos-free references.
	images := testImages(t, 2)
	refSrv := New(Config{Workers: 2})
	defer refSrv.Shutdown(context.Background())
	type rwCase struct {
		body     []byte
		ref      []byte
		original []byte
	}
	var (
		rw         []rwCase
		workingSet int
	)
	for _, img := range images {
		for _, m := range rewriters.Methods {
			ref, err := refSrv.Rewrite(context.Background(), &RewriteRequest{Method: m, Target: "rv64gc", Wire: wire(t, img)})
			if err != nil {
				t.Fatalf("reference %s: %v", m, err)
			}
			b, _ := json.Marshal(rewriteHTTPRequest{Method: m, Target: "rv64gc", Image: wire(t, img)})
			rw = append(rw, rwCase{body: b, ref: ref.ImageBytes, original: wire(t, img)})
			workingSet += len(ref.ImageBytes)
		}
	}

	rates := map[chaos.Kind]float64{
		chaos.DiskTornWrite: 0.20,
		chaos.DiskBitFlip:   0.20,
		chaos.DiskENOSPC:    0.10,
		chaos.CacheCorrupt:  0.25,
		chaos.RewritePanic:  0.10,
	}
	inj := chaos.New(seed, chaos.Config{Rates: rates})
	srv := New(Config{
		Workers:    2,
		CacheBytes: int64(workingSet / 2),
		StoreDir:   t.TempDir(),
		Chaos:      inj,
	})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var (
		mu       sync.Mutex
		failures []string
		degraded uint64
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	issue := func(i, pick int) {
		c := rw[pick]
		resp, err := http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(c.body))
		if err != nil {
			fail("request %d: transport: %v", i, err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fail("request %d: status %d (rewrites must always be answered)", i, resp.StatusCode)
			return
		}
		var res RewriteResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			fail("request %d: decode: %v", i, err)
			return
		}
		if res.Degraded {
			mu.Lock()
			degraded++
			mu.Unlock()
			if !bytes.Equal(res.ImageBytes, c.original) {
				fail("request %d: degraded bytes are not the original image", i)
			}
			return
		}
		if !bytes.Equal(res.ImageBytes, c.ref) {
			fail("request %d: WRONG IMAGE (hit=%t tier=%q)", i, res.CacheHit, res.Tier)
		}
	}

	picks := rand.New(rand.NewSource(seed))
	sem := make(chan struct{}, 6)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		pick := picks.Intn(len(rw))
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			issue(i, pick)
		}(i)
	}
	wg.Wait()

	if len(failures) > 0 {
		max := len(failures)
		if max > 10 {
			max = 10
		}
		for _, f := range failures[:max] {
			t.Error(f)
		}
		t.Fatalf("%d of %d requests violated the oracle", len(failures), n)
	}
	st := srv.Stats()
	t.Logf("disk soak: seed %d, %d requests, %d degraded, %d memory hits, %d disk hits, %d corrupt disk entries evicted, chaos=%v",
		seed, n, degraded, st.Store.MemHits, st.Store.DiskHits, st.Store.Disk.CorruptEvictions, inj.Counts())

	// Accounting: what the client saw and what was injected match /stats
	// exactly, and /stats matches /metrics.
	if st.Faults.Degradations != degraded {
		t.Errorf("client-observed degradations %d != stats %d", degraded, st.Faults.Degradations)
	}
	if st.Faults.Panics != inj.Fired(chaos.RewritePanic) {
		t.Errorf("panics: stats %d != injected %d", st.Faults.Panics, inj.Fired(chaos.RewritePanic))
	}
	if st.Store.DiskErrors != inj.Fired(chaos.DiskENOSPC) {
		t.Errorf("failed disk writes: stats %d != injected ENOSPC %d", st.Store.DiskErrors, inj.Fired(chaos.DiskENOSPC))
	}
	if got, max := st.Store.Disk.CorruptEvictions, inj.Fired(chaos.DiskBitFlip)+inj.Fired(chaos.DiskTornWrite); got > max {
		t.Errorf("corrupt disk evictions %d exceed injected bit flips and torn writes %d", got, max)
	}
	checkStorageCounters(t, scrape(t, srv.Handler()), st)
	checkChaosCoverage(t, inj, rates)
}
