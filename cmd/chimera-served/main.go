// chimera-served runs the Chimera rewrite service: a long-running daemon
// that rewrites images for target core classes over an HTTP JSON API, with
// a content-addressed rewrite cache, singleflight deduplication, and a
// bounded worker pool. See README.md "Serving mode".
//
// Usage:
//
//	chimera-served -addr :8080 -workers 8 -cache-mb 256 \
//	    -request-timeout 2m
//
// Endpoints: POST /rewrite, POST /rewrite/batch, POST /run, POST /fuzz
// (coverage-guided fuzzing campaigns; GET /fuzz/{id} and /fuzz/{id}/corpus
// for status and corpus), GET /healthz, GET /stats, GET /metrics
// (Prometheus), GET /trace/{id}, GET /profile. -fuzz-campaigns caps
// concurrent campaigns (negative disables the fuzz endpoints entirely).
//
// Observability: every response to a traced endpoint carries an
// X-Chimera-Trace header naming its /trace/{id} record; -debug-addr
// mounts net/http/pprof on a SEPARATE listener (keep it private);
// -guest-profile enables the per-image guest profiler served at /profile.
//
// Failure policy: a rewrite that fails (a rewriter reject, a panic, the
// request deadline) is answered with the ORIGINAL image (the paper's
// scalar-core fallback), flagged `degraded` in the response and counted in
// /stats. Degraded answers are never cached, so the next identical request
// tries the rewrite again. -chaos-seed enables deterministic fault
// injection for resilience testing.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registered on http.DefaultServeMux, served only via -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/eurosys26p57/chimera/internal/chaos"
	"github.com/eurosys26p57/chimera/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "pending-request queue depth (0 = 4x workers)")
	cacheMB := flag.Int64("cache-mb", 256, "rewrite cache budget in MiB")
	drain := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
	reqTimeout := flag.Duration("request-timeout", 2*time.Minute, "per-request deadline (0 = library default, negative = off)")
	runBudget := flag.Int64("run-max-instret", 0, "per-/run instruction budget (0 = default 2e9, negative = off)")
	chaosSeed := flag.Int64("chaos-seed", 0, "enable fault injection with this seed (0 = off; NEVER in production)")
	traceCap := flag.Int("trace-capacity", 0, "request traces retained for /trace/{id} (0 = default 256, negative = tracing off)")
	guestProfile := flag.Bool("guest-profile", false, "profile guest execution per image and serve it at /profile")
	fuzzCampaigns := flag.Int("fuzz-campaigns", 0, "max concurrent fuzzing campaigns for POST /fuzz (0 = default 4, negative = endpoint off)")
	debugAddr := flag.String("debug-addr", "", "listen address for net/http/pprof (empty = off; never expose publicly)")
	flag.Parse()

	cfg := service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheBytes:     *cacheMB << 20,
		RequestTimeout: *reqTimeout,
		RunMaxInstret:  *runBudget,
		TraceCapacity:  *traceCap,
		GuestProfile:   *guestProfile,
		MaxCampaigns:   *fuzzCampaigns,
	}
	if *chaosSeed != 0 {
		cfg.Chaos = chaos.Default(*chaosSeed)
		fmt.Fprintf(os.Stderr, "chimera-served: CHAOS INJECTION ENABLED (seed %d)\n", *chaosSeed)
	}
	srv := service.New(cfg)
	hs := srv.HTTPServer(*addr)

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "chimera-served: listening on %s\n", *addr)

	// pprof lives on its own listener, never the public API: importing
	// net/http/pprof mutates http.DefaultServeMux, so the debug server uses
	// exactly that mux while the API handler keeps its own.
	if *debugAddr != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "chimera-served: pprof on %s (do not expose publicly)\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, http.DefaultServeMux); err != nil {
				fmt.Fprintf(os.Stderr, "chimera-served: pprof listener: %v\n", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "chimera-served: %v, draining\n", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections first, then drain the worker pool so every
	// accepted request finishes before the process exits.
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "chimera-served: http shutdown: %v\n", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "chimera-served: drained; %d served, cache hit ratio %.2f, %d degraded, %d panics isolated\n",
		st.Completed, st.Cache.HitRatio, st.Faults.Degradations, st.Faults.Panics)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chimera-served:", err)
	os.Exit(1)
}
