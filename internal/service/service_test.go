package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/bench"
	"github.com/eurosys26p57/chimera/internal/chaos"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// testImages builds a few small SPEC-shaped vector binaries — scaled-down
// instances of the workload suite's generator so 256 concurrent requests
// stay fast under -race.
func testImages(t testing.TB, n int) []*obj.Image {
	t.Helper()
	var out []*obj.Image
	for i := 0; i < n; i++ {
		img, err := workload.BuildSpec(workload.SpecParams{
			Name: fmt.Sprintf("svc%d", i), CodeKB: 32 + 8*i, Funcs: 5,
			VecFuncs: 3, BodyInsts: 20, IndirectEvery: 3, ErrEntryEvery: 10,
			PressureFuncs: 1, HardPressureFuncs: 1, Rounds: 3, Seed: int64(900 + i),
		}, true)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, img)
	}
	return out
}

func wire(t testing.TB, img *obj.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// combos enumerates the mixed method/target request matrix over the images.
func combos(t testing.TB, images []*obj.Image) []*RewriteRequest {
	var out []*RewriteRequest
	for _, img := range images {
		for _, m := range rewriters.Methods {
			out = append(out,
				&RewriteRequest{Method: m, Target: "rv64gc", Wire: wire(t, img)},
				&RewriteRequest{Method: m, Target: "rv64gcv", EmptyPatch: true, Wire: wire(t, img)})
		}
	}
	return out
}

// TestServiceConcurrentHTTP is the acceptance scenario: 256 concurrent
// /rewrite requests (mixed methods and targets) against the HTTP API under
// -race, every response byte-identical to a cold rewrite of the same
// request on a fresh server, a cache hit ratio > 0 reported via /stats, and
// zero errors.
func TestServiceConcurrentHTTP(t *testing.T) {
	images := testImages(t, 3)
	reqs := combos(t, images)

	// Cold references from a fresh, unshared server: a cache hit on the
	// hammered server must be byte-identical to these.
	refSrv := New(Config{Workers: 2})
	defer refSrv.Shutdown(context.Background())
	refs := make(map[int][]byte)
	for i, r := range reqs {
		res, err := refSrv.Rewrite(context.Background(), r)
		if err != nil {
			t.Fatalf("reference %s/%s: %v", r.Method, r.Target, err)
		}
		if res.CacheHit {
			t.Fatalf("reference %d unexpectedly hit the cache", i)
		}
		refs[i] = res.ImageBytes
	}

	srv := New(Config{Workers: 4})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bodies := make(map[int][]byte)
	for i, r := range reqs {
		b, err := json.Marshal(rewriteHTTPRequest{
			Method: r.Method, Target: r.Target, EmptyPatch: r.EmptyPatch,
			Image: r.Wire,
		})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}

	const total = 256
	var wg sync.WaitGroup
	errc := make(chan error, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			combo := i % len(reqs)
			resp, err := http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(bodies[combo]))
			if err != nil {
				errc <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			var res RewriteResult
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				errc <- fmt.Errorf("request %d: decode: %w", i, err)
				return
			}
			if !bytes.Equal(res.ImageBytes, refs[combo]) {
				errc <- fmt.Errorf("request %d (%s/%s, hit=%t): output differs from cold reference",
					i, reqs[combo].Method, reqs[combo].Target, res.CacheHit)
				return
			}
			if _, err := obj.ReadImage(bytes.NewReader(res.ImageBytes)); err != nil {
				errc <- fmt.Errorf("request %d: result not parseable: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.HitRatio <= 0 {
		t.Errorf("cache hit ratio %v, want > 0 (hits=%d misses=%d)",
			st.Cache.HitRatio, st.Cache.Hits, st.Cache.Misses)
	}
	if got := st.Endpoints["rewrite"].Count; got != total {
		t.Errorf("rewrite endpoint count %d, want %d", got, total)
	}
	if len(st.Errors) != 0 {
		t.Errorf("unexpected endpoint errors: %v", st.Errors)
	}
	// 24 distinct requests, 256 calls: the pool must have executed far
	// fewer rewrites than calls (cache + singleflight).
	if st.Completed >= total {
		t.Errorf("pool executed %d jobs for %d requests; cache/singleflight not engaged", st.Completed, total)
	}
}

// TestServiceSingleflight fires identical cold requests concurrently and
// checks they shared work instead of each rewriting.
func TestServiceSingleflight(t *testing.T) {
	img := testImages(t, 1)[0]
	srv := New(Config{Workers: 2})
	defer srv.Shutdown(context.Background())
	req := &RewriteRequest{Method: "chbp", Target: "rv64gc", Wire: wire(t, img)}

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Rewrite(context.Background(), req); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := srv.Stats()
	if st.Completed >= n {
		t.Errorf("%d pool executions for %d identical requests; singleflight not engaged", st.Completed, n)
	}
	if st.Deduped+st.Cache.Hits == 0 {
		t.Error("no request was deduplicated or served from cache")
	}
}

// TestFollowerOutlivesLeaderClient checks that a singleflight leader whose
// client hangs up fails none of the followers sharing its rewrite: the
// flight runs on under the request deadline, the follower gets the real
// rewrite, marked deduped, and the result is cached. When the shared
// rewrite itself fails, the follower's degraded answer is marked deduped
// too.
func TestFollowerOutlivesLeaderClient(t *testing.T) {
	img := testImages(t, 1)[0]
	req := &RewriteRequest{Method: "chbp", Target: "rv64gc", Wire: wire(t, img)}
	// share starts a leader, joins a follower to its flight while the only
	// worker stalls, hangs up the leader's client and returns the
	// follower's answer once both requests have returned.
	share := func(t *testing.T, srv *Server) *RewriteResult {
		leaderCtx, cancel := context.WithCancel(context.Background())
		defer cancel()
		leaderDone := make(chan struct{})
		go func() {
			defer close(leaderDone)
			srv.Rewrite(leaderCtx, req)
		}()
		deadline := time.Now().Add(10 * time.Second)
		for srv.Stats().Running == 0 {
			if time.Now().After(deadline) {
				t.Fatal("leader never started running")
			}
			time.Sleep(time.Millisecond)
		}
		var res *RewriteResult
		var err error
		followerDone := make(chan struct{})
		go func() {
			defer close(followerDone)
			res, err = srv.Rewrite(context.Background(), req)
		}()
		// Hang up once the follower has joined. The outcome does not hang on
		// this wait: a follower arriving after the hang-up still joins the
		// flight, which stays registered for the whole stall.
		time.Sleep(100 * time.Millisecond)
		cancel()
		<-followerDone
		<-leaderDone
		if err != nil {
			t.Fatalf("follower: %v", err)
		}
		return res
	}

	t.Run("rewrite", func(t *testing.T) {
		srv := New(Config{Workers: 1, Chaos: chaosCfg(500*time.Millisecond, chaos.RewriteStall)})
		defer srv.Shutdown(context.Background())
		res := share(t, srv)
		if res.Degraded {
			t.Fatalf("follower degraded by its leader's hang-up: %q", res.DegradedReason)
		}
		if !res.Deduped {
			t.Error("follower answer not marked deduped")
		}
		again, err := srv.Rewrite(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !again.CacheHit || !bytes.Equal(again.ImageBytes, res.ImageBytes) {
			t.Errorf("the shared rewrite was not cached (hit=%t)", again.CacheHit)
		}
	})

	t.Run("degraded", func(t *testing.T) {
		srv := New(Config{Workers: 1, Chaos: chaosCfg(500*time.Millisecond, chaos.RewriteStall, chaos.RewritePanic)})
		defer srv.Shutdown(context.Background())
		res := share(t, srv)
		if !res.Degraded || !strings.Contains(res.DegradedReason, "panic") {
			t.Fatalf("follower answer degraded=%t (%q), want degradation by the shared panic", res.Degraded, res.DegradedReason)
		}
		if !bytes.Equal(res.ImageBytes, req.Wire) {
			t.Error("degraded bytes are not the original image")
		}
		if !res.Deduped {
			t.Error("follower's degraded answer not marked deduped")
		}
	})
}

// TestIgnoredOptionsShareCacheKey checks that options a method ignores do
// not split its cache entries: Safer has no batching switch, so a safer
// /rewrite with disable_batching set after one without it is a cache hit
// under the same key, while chbp, which reads the flag, keys it apart.
func TestIgnoredOptionsShareCacheKey(t *testing.T) {
	img := testImages(t, 1)[0]
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(method string, noBatch bool) RewriteResult {
		t.Helper()
		body, _ := json.Marshal(rewriteHTTPRequest{
			Method: method, Target: "rv64gc", DisableBatching: noBatch, Image: wire(t, img),
		})
		resp, err := http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", method, resp.StatusCode)
		}
		var res RewriteResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := post("safer", false)
	nobatch := post("safer", true)
	if !nobatch.CacheHit || nobatch.Key != plain.Key || !bytes.Equal(nobatch.ImageBytes, plain.ImageBytes) {
		t.Errorf("safer with disable_batching: cache_hit %t, key %q, want a hit on %q",
			nobatch.CacheHit, nobatch.Key, plain.Key)
	}
	if !strings.Contains(plain.Key, "nobatch=false") {
		t.Errorf("key %q lost its option fields", plain.Key)
	}
	if ch, chNoBatch := post("chbp", false), post("chbp", true); chNoBatch.CacheHit || chNoBatch.Key == ch.Key {
		t.Errorf("chbp with disable_batching shared key %q with the batched rewrite", ch.Key)
	}
}

// TestCacheHitKeepsStats checks that a cache hit reports the stats its cold
// rewrite computed, for every method with the resolver on: equal Go values
// in process, and byte-equal "stats" objects over HTTP.
func TestCacheHitKeepsStats(t *testing.T) {
	img := testImages(t, 1)[0]
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	httpSrv := New(Config{Workers: 1})
	defer httpSrv.Shutdown(context.Background())
	ts := httptest.NewServer(httpSrv.Handler())
	defer ts.Close()

	type answer struct {
		Stats    json.RawMessage `json:"stats"`
		CacheHit bool            `json:"cache_hit"`
	}
	post := func(method string) answer {
		t.Helper()
		body, _ := json.Marshal(rewriteHTTPRequest{Method: method, Target: "rv64gc", Resolve: true, Image: wire(t, img)})
		resp, err := http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", method, resp.StatusCode)
		}
		var a answer
		if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, method := range rewriters.Methods {
		req := &RewriteRequest{Method: method, Target: "rv64gc", Resolve: true, Wire: wire(t, img)}
		var res [2]*RewriteResult
		for i := range res {
			r, err := srv.Rewrite(context.Background(), req)
			if err != nil {
				t.Fatalf("%s: %v", method, err)
			}
			res[i] = r
		}
		if res[0].CacheHit || !res[1].CacheHit || res[0].Stats.Resolve == nil {
			t.Fatalf("%s: cache_hit %t then %t, resolve summary %v; want false, true, set",
				method, res[0].CacheHit, res[1].CacheHit, res[0].Stats.Resolve)
		}
		if !reflect.DeepEqual(res[0].Stats, res[1].Stats) {
			t.Errorf("%s: in-process stats differ across a hit:\ncold %+v\nhit  %+v", method, res[0].Stats, res[1].Stats)
		}
		cold, hit := post(method), post(method)
		if cold.CacheHit || !hit.CacheHit {
			t.Fatalf("%s over HTTP: cache_hit %t then %t, want false then true", method, cold.CacheHit, hit.CacheHit)
		}
		if !bytes.Equal(cold.Stats, hit.Stats) {
			t.Errorf("%s: stats JSON differs across a hit:\ncold %s\nhit  %s", method, cold.Stats, hit.Stats)
		}
	}
}

// TestServiceShutdownDrains checks graceful shutdown: every accepted
// request completes, requests after the gate are rejected.
func TestServiceShutdownDrains(t *testing.T) {
	images := testImages(t, 2)
	srv := New(Config{Workers: 2})

	// 16 distinct cold requests (methods × targets × images) keep the pool
	// busy while we shut down.
	reqs := combos(t, images)
	var wg sync.WaitGroup
	errc := make(chan error, len(reqs))
	for _, r := range reqs {
		wg.Add(1)
		go func(r *RewriteRequest) {
			defer wg.Done()
			res, err := srv.Rewrite(context.Background(), r)
			if err != nil {
				errc <- err
				return
			}
			if len(res.ImageBytes) == 0 {
				errc <- errors.New("empty result")
			}
		}(r)
	}

	// Wait until every request is accepted into the queue, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Accepted+srv.Stats().Cache.Hits+srv.Stats().Deduped < uint64(len(reqs)) {
		if time.Now().After(deadline) {
			t.Fatalf("requests not accepted in time: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("in-flight request dropped: %v", err)
	}

	// The gate is down now. A cache hit is allowed post-shutdown (no pool
	// work); builds are reproducible, so force a genuine miss with an image
	// no earlier request could have cached.
	fresh, err := workload.BuildSpec(workload.SpecParams{
		Name: "svc-post-shutdown", CodeKB: 32, Funcs: 5,
		VecFuncs: 3, BodyInsts: 20, IndirectEvery: 3, ErrEntryEvery: 10,
		PressureFuncs: 1, HardPressureFuncs: 1, Rounds: 3, Seed: 4242,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Rewrite(context.Background(),
		&RewriteRequest{Method: "armore", Target: "rv64gcv", EmptyPatch: true, Wire: wire(t, fresh)}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("post-shutdown cold request: got %v, want ErrShuttingDown", err)
	}
}

// TestServiceCancellation cancels a request while it waits in the queue.
func TestServiceCancellation(t *testing.T) {
	images := testImages(t, 2)
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())

	busy := &RewriteRequest{Method: "chbp", Target: "rv64gc", Wire: wire(t, images[0])}
	canceled := &RewriteRequest{Method: "safer", Target: "rv64gc", Wire: wire(t, images[1])}

	// Occupy the single worker.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Rewrite(context.Background(), busy)
	}()
	for srv.Stats().Accepted == 0 {
		time.Sleep(100 * time.Microsecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.Rewrite(ctx, canceled)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled request: got %v, want context.Canceled", err)
	}
	wg.Wait()
}

// TestServiceCacheEviction forces LRU eviction with a tiny byte budget.
func TestServiceCacheEviction(t *testing.T) {
	images := testImages(t, 3)
	srv := New(Config{Workers: 2, CacheBytes: 1}) // every insert over budget
	defer srv.Shutdown(context.Background())
	for _, img := range images {
		if _, err := srv.Rewrite(context.Background(),
			&RewriteRequest{Method: "chbp", Target: "rv64gc", Wire: wire(t, img)}); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Cache.Evictions == 0 {
		t.Errorf("no evictions under a 1-byte budget: %+v", st.Cache)
	}
	if st.Cache.Entries > 1 {
		t.Errorf("budget 1 byte holds %d entries", st.Cache.Entries)
	}
}

// TestServiceRunHTTP executes an image through POST /run and cross-checks
// the result against a direct kernel run.
func TestServiceRunHTTP(t *testing.T) {
	img, err := workload.Fibonacci(10, riscv.RV64GC, true)
	if err != nil {
		t.Fatal(err)
	}

	v, err := kernel.VariantFromImage(img.Clone())
	if err != nil {
		t.Fatal(err)
	}
	p, err := kernel.NewProcess(img.Name, []kernel.Variant{v})
	if err != nil {
		t.Fatal(err)
	}
	wantCycles, err := bench.RunOnCore(p, img.ISA)
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{Workers: 2})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(runHTTPRequest{Image: wire(t, img)})
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res RunResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != p.ExitCode {
		t.Errorf("exit code %d, want %d", res.ExitCode, p.ExitCode)
	}
	if res.Cycles != wantCycles {
		t.Errorf("cycles %d, want %d", res.Cycles, wantCycles)
	}

	// The run must report the hart's block-cache activity, and /stats must
	// aggregate it.
	if res.Blocks.Dispatches == 0 || res.Blocks.Retired == 0 {
		t.Errorf("run result block counters empty: %+v", res.Blocks)
	}
	if res.EmulatedMIPS <= 0 {
		t.Errorf("emulated MIPS not reported: %v", res.EmulatedMIPS)
	}
	st := srv.Stats()
	if st.Emulator.Runs != 1 || st.Emulator.Instret != res.Instret {
		t.Errorf("stats emulator aggregate %+v, want 1 run with instret %d", st.Emulator, res.Instret)
	}
	if st.Emulator.Blocks != res.Blocks {
		t.Errorf("stats blocks %+v != run blocks %+v", st.Emulator.Blocks, res.Blocks)
	}
	if st.Emulator.BlockHitRatio <= 0 || st.Emulator.RetiredPerDispatch <= 0 {
		t.Errorf("derived block metrics not populated: %+v", st.Emulator)
	}
}

// TestServiceHTTPErrors exercises the failure paths of the HTTP layer.
func TestServiceHTTPErrors(t *testing.T) {
	img := testImages(t, 1)[0]
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body []byte) int {
		resp, err := http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode
	}

	okImage := wire(t, img)
	cases := []struct {
		name string
		body rewriteHTTPRequest
		want int
	}{
		{"unknown method", rewriteHTTPRequest{Method: "nope", Target: "rv64gc", Image: okImage}, 400},
		{"unknown target", rewriteHTTPRequest{Method: "chbp", Target: "armv8", Image: okImage}, 400},
		{"missing image", rewriteHTTPRequest{Method: "chbp", Target: "rv64gc"}, 400},
		{"corrupt image", rewriteHTTPRequest{Method: "chbp", Target: "rv64gc", Image: []byte("CHIMnonsense")}, 400},
	}
	for _, c := range cases {
		b, _ := json.Marshal(c.body)
		if got := post(b); got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
	}
	if got := post([]byte("{not json")); got != 400 {
		t.Errorf("malformed json: status %d, want 400", got)
	}
	resp, err := http.Get(ts.URL + "/rewrite")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /rewrite: status %d, want 405", resp.StatusCode)
	}

	// Health flips to draining after shutdown.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d, want 200", resp.StatusCode)
	}
	srv.Shutdown(context.Background())
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown: status %d, want 503", resp.StatusCode)
	}
}

// exitImage assembles a guest that exits with code, after a null
// dereference when nullDeref is set.
func exitImage(t *testing.T, code int64, nullDeref bool) *obj.Image {
	t.Helper()
	b := asm.NewBuilder(riscv.RV64GC)
	b.Func("main")
	if nullDeref {
		b.Load(riscv.LD, riscv.T0, riscv.Zero, 0)
	}
	b.Li(riscv.A0, code)
	b.Li(riscv.A7, kernel.SysExit)
	b.Ecall()
	img, err := b.Build(fmt.Sprintf("exit%d", code), "main")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestRunExitCodeIsNotASignal: /run answers a voluntary exit(200) with its
// exit code, not as a kill by signal 72, and still reports a real signal
// kill by its own number.
func TestRunExitCodeIsNotASignal(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	res, err := srv.Run(context.Background(), &RunRequest{Image: exitImage(t, 200, false)})
	if err != nil {
		t.Fatalf("exit(200): %v", err)
	}
	if res.ExitCode != 200 {
		t.Errorf("exit code %d, want 200", res.ExitCode)
	}
	_, err = srv.Run(context.Background(), &RunRequest{Image: exitImage(t, 0, true)})
	if !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), "killed by signal 11") {
		t.Errorf("null dereference: err %v, want a bad request killed by signal 11", err)
	}
}
