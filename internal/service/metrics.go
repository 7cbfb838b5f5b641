package service

import (
	"time"

	"github.com/eurosys26p57/chimera/internal/cluster"
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/store"
	"github.com/eurosys26p57/chimera/internal/telemetry"
)

// serviceMetrics is the server's single source of truth for the counters
// and latency distributions it owns: they live in the telemetry registry,
// and both /metrics (Prometheus exposition) and /stats (the JSON blob) are
// rendered FROM it, so the two can never disagree. Counts owned by a lower
// layer (the store tiers, the cluster) stay there, and /metrics samples
// them at scrape time (registerStoreCounters).
type serviceMetrics struct {
	reg *telemetry.Registry

	// Request lifecycle counters.
	accepted  *telemetry.Counter
	completed *telemetry.Counter
	rejected  *telemetry.Counter
	deduped   *telemetry.Counter

	// Fault accounting (FaultStats in /stats).
	panics          *telemetry.Counter
	retries         *telemetry.Counter
	attemptFailures *telemetry.Counter
	rewriteRejects  *telemetry.Counter
	degradations    *telemetry.Counter
	deadlineHits    *telemetry.Counter
	budgetStops     *telemetry.Counter
	breakerTrips    *telemetry.Counter
	goroutinePanics *telemetry.CounterVec // {site}

	// Peer-protocol endpoint (server side).
	peerServes  *telemetry.Counter
	peerAccepts *telemetry.Counter
	peerRejects *telemetry.Counter

	// Batch endpoint.
	batchRequests *telemetry.Counter
	batchItems    *telemetry.Counter

	// Static resolver (RewriteRequest.Resolve): per-tier site and target
	// tallies across resolver-on rewrites, recovered instructions, and the
	// runtime-rewrite faults pre-materialized rows statically avoid.
	resolveRewrites  *telemetry.Counter
	resolveSites     *telemetry.CounterVec // {tier} = high|medium|low|unresolved
	resolveTargets   *telemetry.CounterVec // {tier} = high|medium|low
	resolveRecovered *telemetry.Counter
	resolveAvoided   *telemetry.Counter

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
	stageStoreVerify *telemetry.Histogram
	stageRunExec     *telemetry.Histogram
	stageDecode      *telemetry.Histogram
	stageEncode      *telemetry.Histogram

	// Emulator aggregates over all /run requests.
	guestRuns     *telemetry.Counter
	guestInstret  *telemetry.Counter
	guestCycles   *telemetry.Counter
	blocksBuilt   *telemetry.Counter
	blockHits     *telemetry.Counter
	blockInvalids *telemetry.Counter
	blockDisp     *telemetry.Counter
	blockRetired  *telemetry.Counter

	// Trace-tier (superblock) counters, same lifecycle as the block family.
	tracesBuilt  *telemetry.Counter
	traceHits    *telemetry.Counter
	traceRetired *telemetry.Counter
	traceSides   *telemetry.Counter
	picHits      *telemetry.Counter
	picMisses    *telemetry.Counter

	// Fuzzing campaigns (POST /fuzz): totals folded in as each campaign
	// finishes; the active gauge is registered scrape-time in NewServer.
	fuzzCampaigns *telemetry.Counter
	fuzzExecs     *telemetry.Counter
	fuzzCrashes   *telemetry.Counter
	fuzzHangs     *telemetry.Counter
	fuzzCorpus    *telemetry.Counter
	fuzzEdges     *telemetry.Counter

	// kernelTel folds each run's kernel.Counters into the shared
	// chimera_kernel_* families (and registers the scheduler families).
	kernelTel *kernel.SchedTelemetry
}

func newServiceMetrics() *serviceMetrics {
	r := telemetry.NewRegistry()
	db := telemetry.DurationBuckets()
	m := &serviceMetrics{
		reg: r,

		accepted:  r.Counter("chimera_requests_accepted_total", "requests admitted to the worker queue"),
		completed: r.Counter("chimera_requests_completed_total", "jobs finished by a worker"),
		rejected:  r.Counter("chimera_requests_rejected_total", "requests refused while shutting down"),
		deduped:   r.Counter("chimera_requests_deduped_total", "requests that shared an in-flight identical rewrite"),

		panics:          r.Counter("chimera_worker_panics_total", "rewrites that panicked on a worker and were isolated"),
		retries:         r.Counter("chimera_rewrite_retries_total", "rewrite attempts re-submitted after a transient failure"),
		attemptFailures: r.Counter("chimera_rewrite_attempt_failures_total", "individual failed rewrite attempts before retry accounting"),
		rewriteRejects:  r.Counter("chimera_rewrite_rejects_total", "rewrites refused by the rewriter itself (typed ErrRewriteReject; deterministic per input, no retry, no breaker strike)"),
		degradations:    r.Counter("chimera_degradations_total", "requests answered with the original image via graceful degradation"),
		deadlineHits:    r.Counter("chimera_deadline_exceeded_total", "requests that hit their per-request deadline"),
		budgetStops:     r.Counter("chimera_run_budget_stops_total", "runs ended by the hard instruction budget"),
		breakerTrips:    r.Counter("chimera_breaker_trips_total", "circuit breaker openings (rewriter config quarantines)"),
		goroutinePanics: r.CounterVec("chimera_goroutine_panics_total", "panics recovered on the server's own goroutines, by launch site", "site"),

		peerServes:  r.Counter("chimera_peer_store_serves_total", "peer-protocol GETs served with an entry"),
		peerAccepts: r.Counter("chimera_peer_store_accepts_total", "peer-protocol PUTs accepted into the store"),
		peerRejects: r.Counter("chimera_peer_store_rejects_total", "peer-protocol requests rejected (bad id, corrupt body)"),

		batchRequests: r.Counter("chimera_batch_requests_total", "POST /rewrite/batch requests"),
		batchItems:    r.Counter("chimera_batch_items_total", "individual items across all batch requests"),

		resolveRewrites:  r.Counter("chimera_resolve_rewrites_total", "rewrites that ran the static indirect-target resolver"),
		resolveSites:     r.CounterVec("chimera_resolve_sites_total", "indirect sites seen by the resolver, by best confidence tier", "tier"),
		resolveTargets:   r.CounterVec("chimera_resolve_targets_total", "candidate targets recovered by the resolver, by confidence tier", "tier"),
		resolveRecovered: r.Counter("chimera_resolve_recovered_insts_total", "instructions reachable only through resolver-recovered targets"),
		resolveAvoided:   r.Counter("chimera_resolve_avoided_rewrites_total", "runtime-rewrite faults avoided by pre-materialized fault-table rows"),

		requestSeconds: r.HistogramVec("chimera_request_seconds", "end-to-end request latency by endpoint", db, "endpoint"),
		methodSeconds:  r.HistogramVec("chimera_method_seconds", "successful rewrite latency by rewriter method", db, "method"),
		stageSeconds:   r.HistogramVec("chimera_stage_seconds", "per-stage latency within the request pipeline", db, "stage"),
		requestErrors:  r.CounterVec("chimera_request_errors_total", "requests that returned an error, by endpoint", "endpoint"),

		guestRuns:     r.Counter("chimera_guest_runs_total", "completed guest executions"),
		guestInstret:  r.Counter("chimera_guest_instret_total", "guest instructions retired across all runs"),
		guestCycles:   r.Counter("chimera_guest_cycles_total", "simulated cycles across all runs"),
		blocksBuilt:   r.Counter("chimera_blocks_built_total", "basic blocks decoded and cached"),
		blockHits:     r.Counter("chimera_block_hits_total", "block dispatches served from the translation cache"),
		blockInvalids: r.Counter("chimera_block_invalidations_total", "cached blocks dropped for a stale generation or ISA"),
		blockDisp:     r.Counter("chimera_block_dispatches_total", "basic-block executions"),
		blockRetired:  r.Counter("chimera_block_retired_total", "instructions retired via block dispatch"),

		tracesBuilt:  r.Counter("chimera_emu_trace_built_total", "superblock traces stitched from hot block chains"),
		traceHits:    r.Counter("chimera_emu_trace_hits_total", "dispatches served by a compiled trace"),
		traceRetired: r.Counter("chimera_emu_trace_retired_total", "instructions retired inside traces"),
		traceSides:   r.Counter("chimera_emu_trace_side_exits_total", "trace guard failures that fell back to the block tier"),
		picHits:      r.Counter("chimera_emu_trace_pic_hits_total", "indirect-jump chains served by the polymorphic inline cache"),
		picMisses:    r.Counter("chimera_emu_trace_pic_misses_total", "indirect-jump chains that probed the block cache"),

		fuzzCampaigns: r.Counter("chimera_fuzz_campaigns_total", "fuzzing campaigns created via POST /fuzz"),
		fuzzExecs:     r.Counter("chimera_fuzz_execs_total", "guest executions across all finished campaigns"),
		fuzzCrashes:   r.Counter("chimera_fuzz_crashes_unique_total", "unique (signal, pc) crash buckets found by finished campaigns"),
		fuzzHangs:     r.Counter("chimera_fuzz_hangs_total", "executions ended by the per-exec instruction budget"),
		fuzzCorpus:    r.Counter("chimera_fuzz_corpus_entries_total", "coverage-novel corpus entries kept by finished campaigns"),
		fuzzEdges:     r.Counter("chimera_fuzz_edges_total", "distinct coverage-map edges reached by finished campaigns"),
	}
	m.stageCacheLookup = m.stageSeconds.With("cache_lookup")
	m.stageFlightWait = m.stageSeconds.With("singleflight_wait")
	m.stageQueueWait = m.stageSeconds.With("queue_wait")
	m.stageRewrite = m.stageSeconds.With("rewrite")
	m.stageVerify = m.stageSeconds.With("verify")
	m.stageStoreVerify = m.stageSeconds.With("store_verify")
	m.stageRunExec = m.stageSeconds.With("run_exec")
	m.stageDecode = m.stageSeconds.With("decode")
	m.stageEncode = m.stageSeconds.With("encode")
	m.kernelTel = kernel.NewSchedTelemetry(r)
	return m
}

// registerStoreCounters registers the store and cluster counter families
// as scrape-time samples of the counts those layers keep (TierStats and
// the cluster Snapshot), so each event has one counter and /metrics reads
// the number /stats reports. Every family is registered whatever the
// configuration and reads 0 without a disk tier or a cluster.
func (s *Server) registerStoreCounters() {
	r := s.tel.reg
	tiers := func(f func(store.TieredStats) uint64) func() uint64 {
		return func() uint64 { return f(s.st.TierStats()) }
	}
	mem := func(f func(store.Stats) uint64) func() uint64 {
		return tiers(func(ts store.TieredStats) uint64 { return f(ts.Memory) })
	}
	disk := func(f func(store.Stats) uint64) func() uint64 {
		return tiers(func(ts store.TieredStats) uint64 {
			if ts.Disk == nil {
				return 0
			}
			return f(*ts.Disk)
		})
	}
	peers := func(f func(cluster.Stats) uint64) func() uint64 {
		return func() uint64 {
			if s.clu == nil {
				return 0
			}
			return f(s.clu.Snapshot())
		}
	}
	hits := func(st store.Stats) uint64 { return st.Hits }
	misses := func(st store.Stats) uint64 { return st.Misses }
	evictions := func(st store.Stats) uint64 { return st.Evictions }
	corrupt := func(st store.Stats) uint64 { return st.CorruptEvictions }

	// Rewrite cache: the memory tier (names predate the disk tier and are
	// kept stable for dashboards).
	r.CounterFunc("chimera_cache_hits_total", "memory-tier rewrite cache hits", mem(hits))
	r.CounterFunc("chimera_cache_misses_total", "memory-tier rewrite cache misses", mem(misses))
	r.CounterFunc("chimera_cache_evictions_total", "memory-tier rewrite cache LRU evictions", mem(evictions))
	r.CounterFunc("chimera_cache_corrupt_evictions_total", "cache entries that failed checksum verification on a hit and were evicted", mem(corrupt))

	// Tiered store: which tier answered, end-to-end misses, and the disk
	// tier's own counters.
	r.CounterFuncVec("chimera_store_tier_hits_total", "store lookups served, by tier", "tier", map[string]func() uint64{
		store.TierMemory: tiers(func(ts store.TieredStats) uint64 { return ts.MemHits }),
		store.TierDisk:   tiers(func(ts store.TieredStats) uint64 { return ts.DiskHits }),
	})
	r.CounterFunc("chimera_store_misses_total", "store lookups that missed every tier",
		tiers(func(ts store.TieredStats) uint64 { return ts.Misses }))
	r.CounterFunc("chimera_store_disk_hits_total", "disk-tier store hits (verified reads)", disk(hits))
	r.CounterFunc("chimera_store_disk_misses_total", "disk-tier store misses", disk(misses))
	r.CounterFunc("chimera_store_disk_evictions_total", "disk-tier store LRU evictions", disk(evictions))
	r.CounterFunc("chimera_store_disk_corrupt_evictions_total", "disk entries that failed verification on read and were deleted", disk(corrupt))
	r.CounterFunc("chimera_store_disk_errors_total", "disk-tier I/O failures absorbed (failed writes, vanished reads)",
		disk(func(st store.Stats) uint64 { return st.Errors }))

	// Cluster peer traffic (client side).
	r.CounterFunc("chimera_cluster_peer_hits_total", "cache misses answered by the key's shard owner",
		peers(func(cs cluster.Stats) uint64 { return cs.PeerHits }))
	r.CounterFunc("chimera_cluster_peer_misses_total", "shard-owner lookups that missed",
		peers(func(cs cluster.Stats) uint64 { return cs.PeerMisses }))
	r.CounterFunc("chimera_cluster_peer_errors_total", "failed shard-owner calls (unreachable, bad status, corrupt body)",
		peers(func(cs cluster.Stats) uint64 { return cs.PeerErrors }))
	r.CounterFunc("chimera_cluster_offers_total", "completed rewrites offered to their shard owner",
		peers(func(cs cluster.Stats) uint64 { return cs.Offers }))
	r.CounterFunc("chimera_cluster_offer_errors_total", "shard-owner offers that failed (absorbed)",
		peers(func(cs cluster.Stats) uint64 { return cs.OfferErrors }))
	r.CounterFunc("chimera_cluster_breaker_trips_total", "per-peer health breaker openings",
		peers(func(cs cluster.Stats) uint64 {
			var trips uint64
			for _, p := range cs.Peers {
				trips += p.Trips
			}
			return trips
		}))
}

// observeStage records one stage duration on a pre-resolved child.
func observeStage(h *telemetry.Histogram, d time.Duration) { h.Observe(d.Seconds()) }

// recordResolve folds one resolver-on rewrite's recovery stats into the
// chimera_resolve_* families. Called only on cold rewrites (the worker
// path), so cache hits never double-count.
func (m *serviceMetrics) recordResolve(st *RewriteStats) {
	if st.Resolve == nil {
		return
	}
	m.resolveRewrites.Inc()
	sum := st.Resolve
	m.resolveSites.With("high").Add(uint64(sum.SitesHigh))
	m.resolveSites.With("medium").Add(uint64(sum.SitesMedium))
	m.resolveSites.With("low").Add(uint64(sum.SitesLow))
	m.resolveSites.With("unresolved").Add(uint64(sum.SitesUnresolved))
	m.resolveTargets.With("high").Add(uint64(sum.TargetsHigh))
	m.resolveTargets.With("medium").Add(uint64(sum.TargetsMedium))
	m.resolveTargets.With("low").Add(uint64(sum.TargetsLow))
	m.resolveRecovered.Add(uint64(st.RecoveredInsts))
	m.resolveAvoided.Add(uint64(st.AvoidedRewrites))
}

// recordRun folds one completed execution into the registry.
func (m *serviceMetrics) recordRun(res *RunResult, wall time.Duration) {
	m.guestRuns.Inc()
	m.guestInstret.Add(res.Instret)
	m.guestCycles.Add(res.Cycles)
	m.stageRunExec.Observe(wall.Seconds())
	m.blocksBuilt.Add(res.Blocks.Built)
	m.blockHits.Add(res.Blocks.Hits)
	m.blockInvalids.Add(res.Blocks.Invalidations)
	m.blockDisp.Add(res.Blocks.Dispatches)
	m.blockRetired.Add(res.Blocks.Retired)
	m.tracesBuilt.Add(res.Blocks.TracesBuilt)
	m.traceHits.Add(res.Blocks.TraceHits)
	m.traceRetired.Add(res.Blocks.TraceRetired)
	m.traceSides.Add(res.Blocks.SideExits)
	m.picHits.Add(res.Blocks.PICHits)
	m.picMisses.Add(res.Blocks.PICMisses)
	m.kernelTel.AddCounters(res.Counters)
}

// blockStats rebuilds the aggregate block tally from the registry.
func (m *serviceMetrics) blockStats() emu.BlockStats {
	return emu.BlockStats{
		Built:         m.blocksBuilt.Value(),
		Hits:          m.blockHits.Value(),
		Invalidations: m.blockInvalids.Value(),
		Dispatches:    m.blockDisp.Value(),
		Retired:       m.blockRetired.Value(),
		TracesBuilt:   m.tracesBuilt.Value(),
		TraceHits:     m.traceHits.Value(),
		TraceRetired:  m.traceRetired.Value(),
		SideExits:     m.traceSides.Value(),
		PICHits:       m.picHits.Value(),
		PICMisses:     m.picMisses.Value(),
	}
}
