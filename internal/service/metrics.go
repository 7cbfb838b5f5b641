package service

import (
	"time"

	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/store"
	"github.com/eurosys26p57/chimera/internal/telemetry"
)

// serviceMetrics is the server's single source of truth for the request
// counters and latency distributions it owns: they live in the telemetry
// registry, and both /metrics (Prometheus exposition) and /stats (the JSON
// blob) are rendered FROM it, so the two can never disagree. Counts kept
// elsewhere (the rewrite cache, the server's totals) stay there, and
// /metrics samples them at scrape time (registerStoreCounters,
// registerTotals).
type serviceMetrics struct {
	reg *telemetry.Registry

	// Request lifecycle counters.
	accepted  *telemetry.Counter
	completed *telemetry.Counter
	rejected  *telemetry.Counter
	deduped   *telemetry.Counter

	// Fault accounting (FaultStats in /stats).
	panics          *telemetry.Counter
	rewriteRejects  *telemetry.Counter
	degradations    *telemetry.Counter
	deadlineHits    *telemetry.Counter
	budgetStops     *telemetry.Counter
	goroutinePanics *telemetry.CounterVec // {site}

	// Batch endpoint.
	batchRequests *telemetry.Counter
	batchItems    *telemetry.Counter

	// Latency distributions.
	requestSeconds *telemetry.HistogramVec // {endpoint}
	methodSeconds  *telemetry.HistogramVec // {method}
	stageSeconds   *telemetry.HistogramVec // {stage}
	requestErrors  *telemetry.CounterVec   // {endpoint}

	// Pre-resolved stage children (hot paths keep the child pointer).
	stageCacheLookup *telemetry.Histogram
	stageFlightWait  *telemetry.Histogram
	stageQueueWait   *telemetry.Histogram
	stageRewrite     *telemetry.Histogram
	stageVerify      *telemetry.Histogram
	stageRunExec     *telemetry.Histogram
	stageDecode      *telemetry.Histogram
	stageEncode      *telemetry.Histogram
}

func newServiceMetrics() *serviceMetrics {
	r := telemetry.NewRegistry()
	db := telemetry.DurationBuckets()
	m := &serviceMetrics{
		reg: r,

		accepted:  r.Counter("chimera_requests_accepted_total", "requests admitted past the shutdown gate to wait for an execution slot"),
		completed: r.Counter("chimera_requests_completed_total", "admitted requests that finished running in an execution slot"),
		rejected:  r.Counter("chimera_requests_rejected_total", "requests refused while shutting down"),
		deduped:   r.Counter("chimera_requests_deduped_total", "requests that shared an in-flight identical rewrite"),

		panics:          r.Counter("chimera_worker_panics_total", "rewrites that panicked on a worker and were isolated"),
		rewriteRejects:  r.Counter("chimera_rewrite_rejects_total", "rewrites refused by the rewriter itself (typed ErrRewriteReject, deterministic per input) and answered degraded"),
		degradations:    r.Counter("chimera_degradations_total", "requests answered with the original image via graceful degradation"),
		deadlineHits:    r.Counter("chimera_deadline_exceeded_total", "requests that hit their per-request deadline"),
		budgetStops:     r.Counter("chimera_run_budget_stops_total", "runs ended by the hard instruction budget"),
		goroutinePanics: r.CounterVec("chimera_goroutine_panics_total", "panics recovered on the server's own goroutines, by launch site", "site"),

		batchRequests: r.Counter("chimera_batch_requests_total", "POST /rewrite/batch requests"),
		batchItems:    r.Counter("chimera_batch_items_total", "individual items across all batch requests"),

		requestSeconds: r.HistogramVec("chimera_request_seconds", "end-to-end request latency by endpoint", db, "endpoint"),
		methodSeconds:  r.HistogramVec("chimera_method_seconds", "successful rewrite latency by rewriter method", db, "method"),
		stageSeconds:   r.HistogramVec("chimera_stage_seconds", "per-stage latency within the request pipeline", db, "stage"),
		requestErrors:  r.CounterVec("chimera_request_errors_total", "requests that returned an error, by endpoint", "endpoint"),
	}
	m.stageCacheLookup = m.stageSeconds.With("cache_lookup")
	m.stageFlightWait = m.stageSeconds.With("singleflight_wait")
	m.stageQueueWait = m.stageSeconds.With("queue_wait")
	m.stageRewrite = m.stageSeconds.With("rewrite")
	m.stageVerify = m.stageSeconds.With("verify")
	m.stageRunExec = m.stageSeconds.With("run_exec")
	m.stageDecode = m.stageSeconds.With("decode")
	m.stageEncode = m.stageSeconds.With("encode")
	return m
}

// registerStoreCounters registers the rewrite cache's counter families as
// scrape-time samples of the counts the cache keeps (Memory.Stats), so
// each event has one counter and /metrics reads the number /stats reports.
func (s *Server) registerStoreCounters() {
	r := s.tel.reg
	cache := func(f func(store.Stats) uint64) func() uint64 {
		return func() uint64 { return f(s.cache.Stats()) }
	}
	r.CounterFunc("chimera_cache_hits_total", "memory-tier rewrite cache hits",
		cache(func(st store.Stats) uint64 { return st.Hits }))
	r.CounterFunc("chimera_cache_misses_total", "memory-tier rewrite cache misses",
		cache(func(st store.Stats) uint64 { return st.Misses }))
	r.CounterFunc("chimera_cache_evictions_total", "memory-tier rewrite cache LRU evictions",
		cache(func(st store.Stats) uint64 { return st.Evictions }))
	r.CounterFunc("chimera_cache_corrupt_evictions_total", "cache entries that failed checksum verification on a hit and were evicted",
		cache(func(st store.Stats) uint64 { return st.CorruptEvictions }))
}

// totals sums every completed /run, resolver-on rewrite and fuzzing
// campaign, each folded in once under Server.totMu. /stats copies it and
// the chimera_guest_*, chimera_block(s)_*, chimera_emu_trace_*,
// chimera_kernel_*, chimera_resolve_* and chimera_fuzz_* counter families
// sample it (registerTotals), so the two views agree by construction.
type totals struct {
	// emu carries Runs, Instret, Cycles and Blocks; Stats derives the rest.
	emu    EmuStats
	kernel kernel.Counters
	// resolve leaves FaultsAvoided to kernel.RewriteFaultsAvoided, and fuzz
	// leaves Active to the campaign manager: Stats fills both.
	resolve ResolveStats
	fuzz    FuzzStats
}

// fold applies one event to the server's totals.
func (s *Server) fold(f func(*totals)) {
	s.totMu.Lock()
	f(&s.tot)
	s.totMu.Unlock()
}

// readTotals copies the server's totals.
func (s *Server) readTotals() totals {
	s.totMu.Lock()
	defer s.totMu.Unlock()
	return s.tot
}

// addRun folds one completed execution.
func (t *totals) addRun(res *RunResult) {
	t.emu.Runs++
	t.emu.Instret += res.Instret
	t.emu.Cycles += res.Cycles
	t.emu.Blocks.Add(res.Blocks)
	t.kernel.Add(res.Counters)
}

// registerTotals registers the run, resolver and campaign counter families
// as scrape-time samples of the server's totals.
func (s *Server) registerTotals() {
	r := s.tel.reg
	sample := func(f func(*totals) uint64) func() uint64 {
		return func() uint64 {
			t := s.readTotals()
			return f(&t)
		}
	}
	for _, c := range []struct {
		name, help string
		f          func(*totals) uint64
	}{
		// Emulator aggregates over all /run requests.
		{"chimera_guest_runs_total", "completed guest executions", func(t *totals) uint64 { return t.emu.Runs }},
		{"chimera_guest_instret_total", "guest instructions retired across all runs", func(t *totals) uint64 { return t.emu.Instret }},
		{"chimera_guest_cycles_total", "simulated cycles across all runs", func(t *totals) uint64 { return t.emu.Cycles }},
		{"chimera_blocks_built_total", "basic blocks decoded and cached", func(t *totals) uint64 { return t.emu.Blocks.Built }},
		{"chimera_block_hits_total", "block dispatches served from the translation cache", func(t *totals) uint64 { return t.emu.Blocks.Hits }},
		{"chimera_block_invalidations_total", "cached blocks dropped for a stale generation or ISA", func(t *totals) uint64 { return t.emu.Blocks.Invalidations }},
		{"chimera_block_dispatches_total", "basic-block executions", func(t *totals) uint64 { return t.emu.Blocks.Dispatches }},
		{"chimera_block_retired_total", "instructions retired via block dispatch", func(t *totals) uint64 { return t.emu.Blocks.Retired }},

		// Trace-tier (superblock) counters, same lifecycle as the block family.
		{"chimera_emu_trace_built_total", "superblock traces stitched from hot block chains", func(t *totals) uint64 { return t.emu.Blocks.TracesBuilt }},
		{"chimera_emu_trace_hits_total", "dispatches served by a compiled trace", func(t *totals) uint64 { return t.emu.Blocks.TraceHits }},
		{"chimera_emu_trace_retired_total", "instructions retired inside traces", func(t *totals) uint64 { return t.emu.Blocks.TraceRetired }},
		{"chimera_emu_trace_side_exits_total", "trace guard failures that fell back to the block tier", func(t *totals) uint64 { return t.emu.Blocks.SideExits }},
		{"chimera_emu_trace_pic_hits_total", "indirect-jump chains served by the polymorphic inline cache", func(t *totals) uint64 { return t.emu.Blocks.PICHits }},
		{"chimera_emu_trace_pic_misses_total", "indirect-jump chains that probed the block cache", func(t *totals) uint64 { return t.emu.Blocks.PICMisses }},
		{"chimera_emu_interpreted_total", "instructions the block and trace tiers handed to the interpreter", func(t *totals) uint64 { return t.emu.Blocks.Interpreted }},

		// Kernel events, summed over every run's kernel.Counters.
		{"chimera_kernel_fault_recoveries_total", "deterministic faults recovered via tables", func(t *totals) uint64 { return t.kernel.FaultRecoveries }},
		{"chimera_kernel_traps_total", "trap-based trampoline redirections", func(t *totals) uint64 { return t.kernel.Traps }},
		{"chimera_kernel_checks_total", "indirect-jump pointer checks", func(t *totals) uint64 { return t.kernel.Checks }},
		{"chimera_kernel_runtime_rewrites_total", "unrecognized instructions rewritten at run time", func(t *totals) uint64 { return t.kernel.RuntimeRewrites }},
		{"chimera_kernel_rewrite_faults_avoided_total", "runtime-rewrite faults avoided by resolver pre-materialization", func(t *totals) uint64 { return t.kernel.RewriteFaultsAvoided }},
		{"chimera_kernel_spurious_faults_total", "spurious faults re-validated and absorbed", func(t *totals) uint64 { return t.kernel.SpuriousFaults }},
		{"chimera_kernel_syscalls_total", "guest syscalls serviced", func(t *totals) uint64 { return t.kernel.Syscalls }},
		{"chimera_kernel_signals_total", "signals delivered to guest processes", func(t *totals) uint64 { return t.kernel.SignalsTaken }},
		{"chimera_kernel_cycles_total", "cycles charged for all kernel events", func(t *totals) uint64 { return t.kernel.KernelCycles }},

		// Static resolver (RewriteRequest.Resolve): resolver-on rewrites,
		// recovered instructions, and the runtime-rewrite faults
		// pre-materialized rows statically avoid.
		{"chimera_resolve_rewrites_total", "rewrites that ran the static indirect-target resolver", func(t *totals) uint64 { return t.resolve.Rewrites }},
		{"chimera_resolve_recovered_insts_total", "instructions reachable only through resolver-recovered targets", func(t *totals) uint64 { return t.resolve.RecoveredInsts }},
		{"chimera_resolve_avoided_rewrites_total", "runtime-rewrite faults avoided by pre-materialized fault-table rows", func(t *totals) uint64 { return t.resolve.AvoidedRewrites }},

		// Fuzzing campaigns (POST /fuzz): created campaigns, and the totals
		// of each campaign folded in as it finishes.
		{"chimera_fuzz_campaigns_total", "fuzzing campaigns created via POST /fuzz", func(t *totals) uint64 { return t.fuzz.Campaigns }},
		{"chimera_fuzz_execs_total", "guest executions across all finished campaigns", func(t *totals) uint64 { return t.fuzz.Execs }},
		{"chimera_fuzz_crashes_unique_total", "unique (signal, pc) crash buckets found by finished campaigns", func(t *totals) uint64 { return t.fuzz.Crashes }},
		{"chimera_fuzz_hangs_total", "executions ended by the per-exec instruction budget", func(t *totals) uint64 { return t.fuzz.Hangs }},
		{"chimera_fuzz_corpus_entries_total", "coverage-novel corpus entries kept by finished campaigns", func(t *totals) uint64 { return t.fuzz.Corpus }},
		{"chimera_fuzz_edges_total", "distinct coverage-map edges reached by finished campaigns", func(t *totals) uint64 { return t.fuzz.Edges }},
	} {
		r.CounterFunc(c.name, c.help, sample(c.f))
	}
	// Resolver sites and targets by confidence tier.
	r.CounterFuncVec("chimera_resolve_sites_total", "indirect sites seen by the resolver, by best confidence tier", "tier", map[string]func() uint64{
		"high":       sample(func(t *totals) uint64 { return t.resolve.SitesHigh }),
		"medium":     sample(func(t *totals) uint64 { return t.resolve.SitesMedium }),
		"low":        sample(func(t *totals) uint64 { return t.resolve.SitesLow }),
		"unresolved": sample(func(t *totals) uint64 { return t.resolve.SitesUnresolved }),
	})
	r.CounterFuncVec("chimera_resolve_targets_total", "candidate targets recovered by the resolver, by confidence tier", "tier", map[string]func() uint64{
		"high":   sample(func(t *totals) uint64 { return t.resolve.TargetsHigh }),
		"medium": sample(func(t *totals) uint64 { return t.resolve.TargetsMedium }),
		"low":    sample(func(t *totals) uint64 { return t.resolve.TargetsLow }),
	})
}

// observeStage records one stage duration on a pre-resolved child.
func observeStage(h *telemetry.Histogram, d time.Duration) { h.Observe(d.Seconds()) }
