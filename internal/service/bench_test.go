package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// benchImages builds scaled-down instances of the SPEC-shaped suite: same
// generator, same per-benchmark control-flow character, code size capped so
// a closed-loop benchmark completes in seconds.
func benchImages(b *testing.B, n int) []*obj.Image {
	b.Helper()
	suite := workload.SpecSuite()
	if n > len(suite) {
		n = len(suite)
	}
	var out []*obj.Image
	for _, c := range suite[:n] {
		p := c.Params
		if p.CodeKB > 64 {
			p.CodeKB = 64
		}
		p.Rounds = 1
		img, err := workload.BuildSpec(p, true)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, img)
	}
	return out
}

func reportServiceMetrics(b *testing.B, st Stats) {
	b.ReportMetric(st.Cache.HitRatio, "hit-ratio")
	if rw, ok := st.Endpoints["rewrite"]; ok {
		b.ReportMetric(rw.P50US, "p50-µs")
		b.ReportMetric(rw.P99US, "p99-µs")
		if b.Elapsed() > 0 {
			b.ReportMetric(float64(rw.Count)/b.Elapsed().Seconds(), "req/s")
		}
	}
}

// BenchmarkServiceRewrite hammers the in-process API from b.RunParallel's
// goroutine pool with the mixed method/target matrix over the SPEC-shaped
// suite — the closed-loop load generator of the serving-mode evaluation.
// Reported extras: sustained throughput, p50/p99 latency, cache hit ratio.
func BenchmarkServiceRewrite(b *testing.B) {
	images := benchImages(b, 4)
	reqs := combos(b, images)
	srv := New(Config{})
	defer srv.Shutdown(context.Background())

	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r := reqs[int(next.Add(1))%len(reqs)]
			if _, err := srv.Rewrite(context.Background(), r); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	reportServiceMetrics(b, srv.Stats())
}

// BenchmarkServiceRewriteCold measures the uncached path: a one-entry
// cache budget forces nearly every request through the worker pool.
func BenchmarkServiceRewriteCold(b *testing.B) {
	images := benchImages(b, 2)
	reqs := combos(b, images)
	srv := New(Config{CacheBytes: 1})
	defer srv.Shutdown(context.Background())

	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r := reqs[int(next.Add(1))%len(reqs)]
			if _, err := srv.Rewrite(context.Background(), r); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	reportServiceMetrics(b, srv.Stats())
}

// BenchmarkServiceRun is one in-process /run of the run workload's SPEC
// shape per op: a 128 KiB perlbench_r program rewritten by chbp to rv64gc,
// run on rv64gc with its original as the sibling view, on one execution
// slot, so each run builds into the translations the last one left in the
// slot's arena. Reported extra: emulated MIPS over the timed runs.
func BenchmarkServiceRun(b *testing.B) {
	req := specRunRequest(b, "perlbench_r", 128, 4)
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	ctx := context.Background()
	var instret uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := srv.Run(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		instret += res.Instret
	}
	b.ReportMetric(float64(instret)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkServiceHTTP drives the same load through the full HTTP stack
// (JSON envelope, base64 image, mux, handlers).
func BenchmarkServiceHTTP(b *testing.B) {
	benchHTTP(b, combos(b, benchImages(b, 2)))
}

// BenchmarkServiceHTTPWarm is the served warm hit at the benchmark's
// rewrite-warm shape: 12 SPEC and real-world shaped images of 64–512 KiB
// code, each under the 4 methods to rv64gc, every request a cache hit.
// BenchmarkServiceHTTP's images are capped at 64 KiB, which hides the
// cost of moving a large image through the wire.
func BenchmarkServiceHTTPWarm(b *testing.B) {
	cases := append(workload.SpecSuite(), workload.RealWorldSuite()...)
	const n = 12
	var reqs []*RewriteRequest
	for j := 0; j < n; j++ {
		p := cases[j%len(cases)].Params
		p.Name = fmt.Sprintf("%s.%d", p.Name, j)
		p.Rounds = 4
		p.CodeKB = int(64 * math.Pow(8, (float64(j)+0.5)/n)) // log-spaced over 64–512
		img, err := workload.BuildSpec(p, true)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range rewriters.Methods {
			reqs = append(reqs, &RewriteRequest{Method: m, Target: "rv64gc", Wire: wire(b, img)})
		}
	}
	benchHTTP(b, reqs)
}

// benchHTTP posts reqs round-robin to /rewrite over loopback HTTP from
// b.RunParallel's goroutines. It first posts every request once, untimed,
// to fill the cache, and drains each response so its connection is reused.
func benchHTTP(b *testing.B, reqs []*RewriteRequest) {
	srv := New(Config{})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		body, err := json.Marshal(rewriteHTTPRequest{
			Method: r.Method, Target: r.Target, EmptyPatch: r.EmptyPatch, Image: r.Wire,
		})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
		resp, err := http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			body := bodies[int(next.Add(1))%len(bodies)]
			resp, err := http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			var res RewriteResult
			err = json.NewDecoder(resp.Body).Decode(&res)
			// Drain the chunked terminator the decoder leaves unread, so the
			// connection is reused rather than redialled.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
	b.StopTimer()
	reportServiceMetrics(b, srv.Stats())
}

// BenchmarkRewriteBatch measures POST /rewrite/batch throughput end to end
// (JSON decode, per-item fan-out through the pool/cache, JSON encode). After
// the first iteration every item is a cache hit, so this is the amortized
// bulk-client path the endpoint exists for.
func BenchmarkRewriteBatch(b *testing.B) {
	images := testImages(b, 2)
	srv := New(Config{})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var items []rewriteHTTPRequest
	for _, img := range images {
		for _, m := range rewriters.Methods {
			items = append(items, rewriteHTTPRequest{Method: m, Target: "rv64gc", Image: wire(b, img)})
		}
	}
	body, _ := json.Marshal(batchHTTPRequest{Items: items})

	post := func() {
		resp, err := http.Post(ts.URL+"/rewrite/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("/rewrite/batch status %d", resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
	}
	post() // warm the cache; steady state is what the endpoint amortizes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.ReportMetric(float64(len(items)*b.N)/b.Elapsed().Seconds(), "items/s")
}
