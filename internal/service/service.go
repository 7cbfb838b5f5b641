// Package service turns the rewriters into a long-running, concurrent
// "Chimera-as-a-service" daemon. The paper's deployment story (§4.2) is
// that a binary is rewritten once per target ISA and the result is reused
// by every process and core that runs it; this package is that amortization
// made explicit: a content-addressed rewrite cache (SHA-256 of the image's
// wire form + canonicalized options) tiered across a memory LRU and an
// optional persistent disk store (internal/store), optionally sharded
// across a static peer cluster by consistent hashing (internal/cluster),
// singleflight deduplication so N concurrent identical requests share one
// rewrite, a bounded worker pool with per-request context cancellation and
// graceful drain, and an HTTP JSON front end (cmd/chimera-served).
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eurosys26p57/chimera/internal/chaos"
	"github.com/eurosys26p57/chimera/internal/cluster"
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/instrument"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/store"
	"github.com/eurosys26p57/chimera/internal/telemetry"
)

// Errors the server returns for request-shaped problems. The HTTP layer
// maps ErrBadRequest-wrapped errors to 400 and ErrShuttingDown to 503.
var (
	ErrBadRequest   = errors.New("service: bad request")
	ErrShuttingDown = errors.New("service: shutting down")
)

// Config sizes the server. Zero values pick defaults.
type Config struct {
	// Workers is the number of rewrite/run worker goroutines
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pending-request queue (default 4×Workers).
	// When the queue is full, Rewrite/Run block until a slot frees or the
	// request's context ends — closed-loop backpressure, not load shedding.
	QueueDepth int
	// CacheBytes is the memory-tier rewrite cache budget (default 256 MiB).
	CacheBytes int64
	// StoreDir, when set, mounts a persistent disk tier under the memory
	// cache: completed rewrites are written through to
	// StoreDir/<fanout>/<sha256(key)>.ent and survive restarts (warm-start
	// hits instead of cold rewrites). Empty means memory-only.
	StoreDir string
	// DiskCacheBytes is the disk tier's byte budget (default 1 GiB; only
	// meaningful with StoreDir set).
	DiskCacheBytes int64
	// ClusterSelf is this node's advertised base URL (scheme://host:port)
	// for sharded cluster serving; ClusterPeers are the other nodes'. With
	// peers configured, a cache miss consults the key's shard owner before
	// rewriting, and completed rewrites are offered to their owner. Empty
	// peers means single-node operation.
	ClusterSelf  string
	ClusterPeers []string
	// PeerTimeout bounds each peer store call (default 2s). A peer slower
	// than this is worth less than rewriting locally.
	PeerTimeout time.Duration
	// RequestTimeout bounds each request end-to-end — queue wait and
	// execution (default 2 minutes; negative disables). A /rewrite that
	// exceeds it is answered via degradation; a /run gets 504.
	RequestTimeout time.Duration
	// RunMaxInstret is the hard per-/run instruction budget — the watchdog
	// against unbounded guest loops (default 2e9; negative disables).
	RunMaxInstret int64
	// Chaos, when non-nil, injects faults throughout the stack (rewriter
	// panics and stalls, cache bit-flips, unbounded emulations,
	// spurious emulator faults). Tests and soaks only; nil in production.
	Chaos *chaos.Injector
	// TraceCapacity bounds the request-trace ring buffer (default 256;
	// negative disables tracing entirely).
	TraceCapacity int
	// GuestProfile installs the guest profiler (instrument.Hooks.Prof) on
	// every /run: per-block cycle/instret accumulation, aggregated per image
	// and exposed on /profile. Off by default (off costs nothing beyond the
	// per-dispatch observer check every hooked process already pays).
	GuestProfile bool
	// MaxCampaigns caps concurrently running fuzzing campaigns (POST
	// /fuzz). Campaigns run on dedicated goroutines outside the worker
	// pool (default 4; negative disables the endpoint).
	MaxCampaigns int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.DiskCacheBytes <= 0 {
		c.DiskCacheBytes = 1 << 30
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 2 * time.Second
	}
	switch {
	case c.RequestTimeout == 0:
		c.RequestTimeout = 2 * time.Minute
	case c.RequestTimeout < 0:
		c.RequestTimeout = 0
	}
	switch {
	case c.RunMaxInstret == 0:
		c.RunMaxInstret = 2_000_000_000
	case c.RunMaxInstret < 0:
		c.RunMaxInstret = 0
	}
	if c.MaxCampaigns == 0 {
		c.MaxCampaigns = 4
	}
	return c
}

// RewriteRequest asks for one image to be rewritten for one target core
// class. Wire is the image in the obj wire format (WriteTo/ReadImage), as
// a client sent it, and the service's unit of content addressing: two
// requests with byte-identical wire forms and equal canonicalized options
// share one cache entry. The options mean what the same-named
// rewriters.Config fields mean.
//
// Wire is keyed by its own SHA-256 and parsed only on a cache miss, so a
// warm hit never parses it. A Wire that is not WriteTo's canonical form of
// the image it encodes (trailing bytes, say) is served from the canonical
// entry all the same. Rewrite reads Wire only until it returns.
type RewriteRequest struct {
	Method           string // one of rewriters.Methods
	Target           string // rv64g, rv64gc, rv64gcv, rv64gcb, rv64gcbv
	EmptyPatch       bool
	DisableExitShift bool
	DisableBatching  bool
	DisableUpgrade   bool
	Resolve          bool
	Wire             []byte
}

// RewriteStats carries the per-method rewrite counters: the rewriters'
// own union stats, served as is.
type RewriteStats = rewriters.Stats

// RewriteResult is a completed rewrite. ImageBytes is the rewritten image
// in the obj wire format — a cache hit returns the exact bytes the cold
// rewrite produced. Callers must not mutate ImageBytes: it is shared with
// the cache and with concurrent requests.
type RewriteResult struct {
	Key        string       `json:"key"` // canonical content address
	Method     string       `json:"method"`
	Target     string       `json:"target"`
	ImageBytes []byte       `json:"image"`
	Stats      RewriteStats `json:"stats"`
	CacheHit   bool         `json:"cache_hit"`
	// Tier says which store tier served a cache hit ("memory" or "disk");
	// empty for cold rewrites and degraded answers.
	Tier    string `json:"tier,omitempty"`
	Deduped bool   `json:"deduped"` // shared an in-flight identical rewrite
	// PeerHit marks a miss that was answered by the key's shard owner over
	// the cluster peer protocol instead of a local rewrite.
	PeerHit bool `json:"peer_hit,omitempty"`
	// Degraded marks a graceful-degradation answer: the rewrite failed and
	// ImageBytes is the ORIGINAL image, unmodified — the paper's fallback of
	// running the untouched binary on a core implementing its own ISA
	// (§4.3). DegradedReason says why.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// RunRequest asks for an image to be executed on a simulated core.
type RunRequest struct {
	ISA   string     // core ISA; empty means the image's own
	Image *obj.Image // program to run
	With  *obj.Image // optional sibling variant loaded as a second MMView
}

// RunResult reports one completed execution.
type RunResult struct {
	ExitCode   uint64          `json:"exit_code"`
	Cycles     uint64          `json:"cycles"`
	Instret    uint64          `json:"instret"`
	SimSeconds float64         `json:"sim_seconds"` // cycles at the paper's 1.6GHz clock
	Output     string          `json:"output"`
	Counters   kernel.Counters `json:"counters"`
	// EmulatedMIPS is host-side throughput: instructions retired per
	// wall-clock second on the worker, in millions.
	EmulatedMIPS float64 `json:"emulated_mips"`
	// Blocks is the hart's basic-block translation cache tally for this run.
	Blocks emu.BlockStats `json:"blocks"`
}

// job is one unit of pool work. done is buffered so a worker never blocks
// on a caller that abandoned the request.
type job struct {
	ctx  context.Context
	fn   func() (any, error)
	done chan jobResult
	// enq stamps queue admission; the worker observes the queue-wait stage
	// (and ends the request trace's queue_wait span) at pickup.
	enq   time.Time
	qspan *telemetry.Span
}

type jobResult struct {
	val any
	err error
}

// Server is the rewrite-as-a-service daemon: a bounded worker pool in
// front of the rewriters, with the cache and singleflight layered above it.
type Server struct {
	cfg   Config
	start time.Time

	queue   chan *job
	workers sync.WaitGroup
	drained chan struct{}
	stopped sync.Once

	// mu gates submission against shutdown: submitters hold the read side
	// while enqueueing, so once Shutdown acquires the write side every
	// accepted job is already in the queue and closing it is race-free.
	mu     sync.RWMutex
	closed bool

	// st is the tiered result store (memory LRU over an optional disk
	// tier); clu, when non-nil, shards keys across static peers. offers
	// tracks in-flight async entry offers to shard owners so Shutdown can
	// drain them.
	st     *store.Tiered
	clu    *cluster.Cluster
	offers sync.WaitGroup

	flight flightGroup

	// tel is the single source of truth for every request counter and
	// latency distribution the server owns: /metrics renders it directly
	// and /stats is rebuilt from it, so the two views cannot disagree.
	// Store and cluster counts stay in st and clu, run, resolver and
	// campaign sums in tot, and /metrics samples them.
	tel    *serviceMetrics
	tracer *telemetry.Tracer

	// totMu guards tot (see totals).
	totMu sync.Mutex
	tot   totals

	running   atomic.Int64
	lastPanic atomic.Value // string

	// profMu guards the per-image guest-profile aggregates (GuestProfile).
	profMu   sync.Mutex
	profiles map[string]*imageProfile

	// fuzz owns the POST /fuzz campaigns; nil when MaxCampaigns < 0.
	fuzz *fuzzManager
}

// imageProfile aggregates guest-profiler samples across every /run of one
// image name, with the symbol table captured from the first run.
type imageProfile struct {
	prof *instrument.Profile
	syms *telemetry.SymTable
}

// maxProfiledImages caps the per-image profile map so a stream of
// unique image names cannot grow it without bound.
const maxProfiledImages = 64

// EmuStats aggregates the emulator-side observables of every completed /run:
// how fast the simulated harts execute (emulated MIPS) and how the
// basic-block translation cache is behaving.
type EmuStats struct {
	Runs       uint64  `json:"runs"`
	Instret    uint64  `json:"instret"`
	Cycles     uint64  `json:"cycles"`
	RunSeconds float64 `json:"run_seconds"`
	// EmulatedMIPS is Instret/RunSeconds/1e6 across all runs.
	EmulatedMIPS float64        `json:"emulated_mips"`
	Blocks       emu.BlockStats `json:"blocks"`
	// BlockHitRatio / RetiredPerDispatch / TraceSideExitRate / PICHitRatio
	// summarize Blocks (see emu.BlockStats) so dashboards don't recompute
	// them.
	BlockHitRatio      float64 `json:"block_hit_ratio"`
	RetiredPerDispatch float64 `json:"retired_per_dispatch"`
	TraceSideExitRate  float64 `json:"trace_side_exit_rate"`
	PICHitRatio        float64 `json:"pic_hit_ratio"`
}

// New starts a server with cfg's worker pool already running. It panics if
// the disk store cannot be opened (callers that want the error use
// NewServer).
func New(cfg Config) *Server {
	s, err := NewServer(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewServer starts a server with cfg's worker pool already running. The
// only fallible part is opening the disk store (Config.StoreDir).
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	tel := newServiceMetrics()
	s := &Server{
		cfg:      cfg,
		start:    time.Now(),
		queue:    make(chan *job, cfg.QueueDepth),
		drained:  make(chan struct{}),
		tel:      tel,
		profiles: make(map[string]*imageProfile),
	}
	mem := store.NewMemory(cfg.CacheBytes, store.Counters{Verify: tel.stageVerify})
	var disk *store.Disk
	if cfg.StoreDir != "" {
		var err error
		disk, err = store.OpenDisk(cfg.StoreDir, cfg.DiskCacheBytes,
			store.Counters{Verify: tel.stageStoreVerify}, cfg.Chaos)
		if err != nil {
			return nil, err
		}
	}
	s.st = store.NewTiered(mem, disk)
	s.clu = cluster.New(cluster.Options{
		Self:    cfg.ClusterSelf,
		Peers:   cfg.ClusterPeers,
		Timeout: cfg.PeerTimeout,
	})
	if cfg.TraceCapacity >= 0 {
		s.tracer = telemetry.NewTracer(cfg.TraceCapacity)
	}
	if cfg.MaxCampaigns > 0 {
		s.fuzz = newFuzzManager(cfg.MaxCampaigns)
	}

	// Scrape-time samples: state that already lives on the server or in
	// the layers below it.
	s.registerStoreCounters()
	s.registerTotals()
	r := tel.reg
	r.GaugeFunc("chimera_uptime_seconds", "seconds since the server started",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("chimera_workers", "size of the worker pool",
		func() float64 { return float64(s.cfg.Workers) })
	r.GaugeFunc("chimera_queue_depth", "jobs currently queued",
		func() float64 { return float64(len(s.queue)) })
	r.GaugeFunc("chimera_queue_capacity", "capacity of the job queue",
		func() float64 { return float64(s.cfg.QueueDepth) })
	r.GaugeFunc("chimera_requests_running", "jobs currently executing on a worker",
		func() float64 { return float64(s.running.Load()) })
	if s.fuzz != nil {
		r.GaugeFunc("chimera_fuzz_campaigns_active", "fuzzing campaigns currently running",
			func() float64 { return float64(s.fuzz.activeCount()) })
	}
	r.GaugeFunc("chimera_cache_entries", "memory-tier rewrite cache entries",
		func() float64 { return float64(s.st.Mem().Len()) })
	r.GaugeFunc("chimera_cache_bytes", "memory-tier rewrite cache resident bytes",
		func() float64 { return float64(s.st.Mem().Bytes()) })
	r.GaugeFunc("chimera_cache_budget_bytes", "memory-tier rewrite cache byte budget",
		func() float64 { return float64(cfg.CacheBytes) })
	if d := s.st.Disk(); d != nil {
		r.GaugeFunc("chimera_store_disk_entries", "disk-tier store entries",
			func() float64 { return float64(d.Len()) })
		r.GaugeFunc("chimera_store_disk_bytes", "disk-tier store resident bytes",
			func() float64 { return float64(d.Bytes()) })
		r.GaugeFunc("chimera_store_disk_budget_bytes", "disk-tier store byte budget",
			func() float64 { return float64(cfg.DiskCacheBytes) })
	}
	if s.clu != nil {
		r.GaugeFunc("chimera_cluster_peers", "configured cluster peers",
			func() float64 { return float64(s.clu.Ring().Len() - 1) })
		r.GaugeFunc("chimera_cluster_peers_open", "cluster peers with an open health breaker",
			func() float64 {
				open := 0
				for _, p := range s.clu.Snapshot().Peers {
					if p.Open {
						open++
					}
				}
				return float64(open)
			})
	}

	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		s.spawn("worker", s.worker, func(error) { s.workers.Done() })
	}
	return s, nil
}

// Metrics exposes the server's telemetry registry (the /metrics handler).
func (s *Server) Metrics() *telemetry.Registry { return s.tel.reg }

// Tracer exposes the request tracer (nil when tracing is disabled).
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// worker serves the queue until Shutdown closes it.
func (s *Server) worker() error {
	for j := range s.queue {
		select {
		case <-j.ctx.Done():
			// Canceled while queued: don't burn a worker on it.
			j.done <- jobResult{err: j.ctx.Err()}
			continue
		default:
		}
		observeStage(s.tel.stageQueueWait, time.Since(j.enq))
		j.qspan.End()
		s.running.Add(1)
		v, err := s.runJob(j)
		s.running.Add(-1)
		s.tel.completed.Inc()
		j.done <- jobResult{val: v, err: err}
	}
	return nil
}

// runJob executes one job with panic isolation: a panicking rewrite (a
// rewriter bug, or chaos.RewritePanic) fails only its own request — the
// worker survives, the pool stays at full strength, and the panic value is
// preserved in the error and in /stats for diagnosis.
func (s *Server) runJob(j *job) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.tel.panics.Inc()
			s.lastPanic.Store(fmt.Sprint(r))
			err = fmt.Errorf("%w: %v", ErrWorkerPanic, r)
		}
	}()
	return j.fn()
}

// submit queues fn and waits for its result or ctx. Accepted jobs always
// execute (or are marked canceled) even if this caller stops waiting.
func (s *Server) submit(ctx context.Context, fn func() (any, error)) (any, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.tel.rejected.Inc()
		return nil, ErrShuttingDown
	}
	j := &job{
		ctx: ctx, fn: fn, done: make(chan jobResult, 1),
		enq:   time.Now(),
		qspan: telemetry.TraceFrom(ctx).Span("queue_wait"),
	}
	var accepted bool
	select {
	case s.queue <- j:
		accepted = true
	case <-ctx.Done():
	}
	s.mu.RUnlock()
	if !accepted {
		j.qspan.End()
		return nil, ctx.Err()
	}
	s.tel.accepted.Inc()
	select {
	case r := <-j.done:
		return r.val, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Shutdown stops accepting requests and drains: every job accepted before
// the gate flipped runs to completion. It returns once the pool is idle or
// ctx ends (the pool keeps draining in the background either way).
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopped.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.queue)
		s.spawn("drain", func() error {
			s.workers.Wait()
			s.offers.Wait() // in-flight peer offers finish or time out
			if s.fuzz != nil {
				s.fuzz.stopAll() // cancel campaigns and wait for their goroutines
			}
			return nil
		}, func(error) { close(s.drained) })
	})
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// cacheKey canonicalizes a request into its content address. The config
// is keyed in canonical form, so options the method ignores never split
// entries, and the target by its parsed extension set, so spelling
// variants ("rv64gcbv" vs "rv64gcvb") share entries.
func cacheKey(img *obj.Image, c rewriters.Config) (string, error) {
	id, err := img.ContentID()
	if err != nil {
		return "", fmt.Errorf("service: hashing image: %w", err)
	}
	return keyFor(id, c), nil
}

// wireKey is cacheKey over wire bytes as received: equal to it when wire
// is the canonical encoding of its image.
func wireKey(wire []byte, c rewriters.Config) string {
	sum := sha256.Sum256(wire)
	return keyFor(hex.EncodeToString(sum[:]), c)
}

func keyFor(id string, c rewriters.Config) string {
	c = c.Canonical()
	return fmt.Sprintf("m=%s;t=%x;empty=%t;noshift=%t;nobatch=%t;noupg=%t;res=%t;img=%s",
		c.Method, uint32(c.Target), c.EmptyPatch, c.DisableExitShift,
		c.DisableBatching, c.DisableUpgrade, c.Resolve, id)
}

// validateRewrite checks a request's method, target and image presence
// and returns its rewriter config. The image is parsed and validated on a
// miss.
func validateRewrite(req *RewriteRequest) (rewriters.Config, error) {
	if err := rewriters.CheckMethod(req.Method); err != nil {
		return rewriters.Config{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	isa, err := riscv.ParseISA(req.Target)
	if err != nil {
		return rewriters.Config{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if len(req.Wire) == 0 {
		return rewriters.Config{}, fmt.Errorf("%w: no image", ErrBadRequest)
	}
	return rewriters.Config{
		Method:           req.Method,
		Target:           isa,
		EmptyPatch:       req.EmptyPatch,
		DisableExitShift: req.DisableExitShift,
		DisableBatching:  req.DisableBatching,
		DisableUpgrade:   req.DisableUpgrade,
		Resolve:          req.Resolve,
	}, nil
}

// Rewrite serves one rewrite request: cache lookup, then singleflight,
// then a peer fetch, then one attempt on the worker pool. A rewrite failure
// is never fatal (the paper's core invariant): rejects, panics and
// deadlines all degrade to the original image, which is never cached, so
// the next identical request is the retry. The returned result is a
// per-request copy; its ImageBytes are shared and must be treated as
// read-only.
func (s *Server) Rewrite(ctx context.Context, req *RewriteRequest) (*RewriteResult, error) {
	startAt := time.Now()
	tr := telemetry.TraceFrom(ctx)
	cfg, err := validateRewrite(req)
	if err != nil {
		// An image that does not parse is reported before the options, as
		// it was when every body was parsed up front.
		if len(req.Wire) > 0 {
			if _, perr := decodeImage("image", req.Wire); perr != nil {
				return nil, perr
			}
		}
		s.tel.requestErrors.With("rewrite").Inc()
		return nil, err
	}
	tr.Annotate("method", req.Method)
	tr.Annotate("target", cfg.Target.String())
	key := wireKey(req.Wire, cfg)
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}

	if res, hit := s.lookup(tr, key, startAt); hit {
		return res, nil
	}
	// A miss: parse the wire bytes. An unparseable image is a 400 that,
	// like every body decode failure, is not an endpoint error.
	img, err := decodeImage("image", req.Wire)
	if err != nil {
		return nil, err
	}
	if err := img.Validate(); err != nil {
		s.tel.requestErrors.With("rewrite").Inc()
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	canon, err := cacheKey(img, cfg)
	if err != nil {
		s.tel.requestErrors.With("rewrite").Inc()
		return nil, err
	}
	if canon != key {
		// A non-canonical encoding: its image may be cached under the
		// canonical key.
		key = canon
		if res, hit := s.lookup(tr, key, startAt); hit {
			return res, nil
		}
	}

	flightSpan := tr.Span("singleflight")
	flightStart := time.Now()
	val, err, shared := s.flight.do(ctx, key, s.spawn, func() (*RewriteResult, error) {
		// The whole miss path lives INSIDE the flight so every caller
		// shares its outcome: one peer fetch, one rewrite. It runs on a
		// context that outlives the first caller's client but keeps its
		// request deadline, so a caller that hangs up fails no other.
		fctx := context.WithoutCancel(ctx)
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			fctx, cancel = context.WithDeadline(fctx, startAt.Add(s.cfg.RequestTimeout))
			defer cancel()
		}
		if res, ok := s.peerFetch(fctx, key); ok {
			return res, nil
		}
		return s.rewriteOnce(fctx, img, cfg, key)
	})
	if shared {
		s.tel.deduped.Inc()
		observeStage(s.tel.stageFlightWait, time.Since(flightStart))
		flightSpan.Annotate("role", "follower")
	} else {
		flightSpan.Annotate("role", "leader")
	}
	flightSpan.End()
	if err != nil {
		switch {
		case errors.Is(err, ErrShuttingDown), errors.Is(ctx.Err(), context.Canceled):
			// Shutdown, or this caller is gone and nobody is listening for a
			// degraded answer.
			s.tel.requestErrors.With("rewrite").Inc()
			return nil, err
		case errors.Is(err, context.DeadlineExceeded):
			s.tel.deadlineHits.Inc()
			err = fmt.Errorf("%w: %v", ErrDeadline, err)
		}
		res, err := s.degrade(ctx, req.Method, img, key, cfg.Target, startAt, err)
		if res != nil {
			res.Deduped = shared
		}
		return res, err
	}
	s.tel.requestSeconds.With("rewrite").Observe(time.Since(startAt).Seconds())
	s.tel.methodSeconds.With(req.Method).Observe(time.Since(startAt).Seconds())
	out := *val
	out.Deduped = shared
	return &out, nil
}

// rewriteOnce is the singleflight leader's rewrite: one attempt on the
// pool, stored and offered to the key's owner on success. Rewriter rejects
// are counted here; every failure is the caller's to degrade.
func (s *Server) rewriteOnce(ctx context.Context, img *obj.Image, cfg rewriters.Config, key string) (*RewriteResult, error) {
	tr := telemetry.TraceFrom(ctx)
	asp := tr.Span("rewrite_attempt")
	v, err := s.submit(ctx, func() (any, error) {
		return s.doRewriteChaos(ctx, img, cfg, key)
	})
	if err != nil {
		asp.Annotate("error", err.Error())
		asp.End()
		if errors.Is(err, rewriters.ErrRewriteReject) {
			s.tel.rewriteRejects.Inc()
			tr.Annotate("rewrite_rejected", err.Error())
		}
		return nil, err
	}
	asp.End()
	res := v.(*RewriteResult)
	storeSpan := tr.Span("cache_store")
	s.storeAdd(key, res)
	storeSpan.End()
	s.offerToOwner(res)
	return res, nil
}

// doRewriteChaos interposes the chaos injector between the pool and the
// rewriter: stalls hold the worker for real (bounded only by the request
// context) and panics unwind through the worker's recover. With a nil
// injector every roll is false.
func (s *Server) doRewriteChaos(ctx context.Context, img *obj.Image, cfg rewriters.Config, key string) (any, error) {
	inj := s.cfg.Chaos
	if inj.Roll(chaos.RewriteStall) {
		if err := inj.Stall(ctx); err != nil {
			return nil, err
		}
	}
	if inj.Roll(chaos.RewritePanic) {
		panic(chaos.PanicValue)
	}
	start := time.Now()
	v, err := doRewrite(img, cfg, key)
	if err == nil {
		observeStage(s.tel.stageRewrite, time.Since(start))
		if v.Stats.Resolve != nil {
			s.fold(func(t *totals) { t.resolve.add(&v.Stats) })
		}
	}
	return v, err
}

// degrade answers a failed rewrite with the ORIGINAL image, byte-for-byte:
// the paper's fallback semantics (§4.3) are that when no rewrite is
// available the unmodified binary still runs, on a core implementing its
// own ISA — slower, never wrong. Degraded results carry the cause and are
// never cached, so the next identical request retries the real rewrite.
func (s *Server) degrade(ctx context.Context, method string, img *obj.Image, key string, isa riscv.Ext, startAt time.Time, cause error) (*RewriteResult, error) {
	tr := telemetry.TraceFrom(ctx)
	dsp := tr.Span("degrade")
	dsp.Annotate("reason", cause.Error())
	defer dsp.End()
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		s.tel.requestErrors.With("rewrite").Inc()
		return nil, fmt.Errorf("service: serializing degraded fallback: %v (while degrading: %v)", err, cause)
	}
	s.tel.degradations.Inc()
	s.tel.requestSeconds.With("rewrite").Observe(time.Since(startAt).Seconds())
	return &RewriteResult{
		Key:            key,
		Method:         method,
		Target:         isa.String(),
		ImageBytes:     buf.Bytes(),
		Degraded:       true,
		DegradedReason: cause.Error(),
	}, nil
}

// lookup is the cache_lookup stage. A hit comes back marked with the tier
// that served it, and ends the request.
func (s *Server) lookup(tr *telemetry.Trace, key string, startAt time.Time) (*RewriteResult, bool) {
	span := tr.Span("cache_lookup")
	start := time.Now()
	res, tier, hit := s.cacheGet(key)
	observeStage(s.tel.stageCacheLookup, time.Since(start))
	span.Annotate("hit", fmt.Sprint(hit))
	if hit {
		span.Annotate("tier", tier)
	}
	span.End()
	if !hit {
		return nil, false
	}
	s.tel.requestSeconds.With("rewrite").Observe(time.Since(startAt).Seconds())
	res.CacheHit = true
	res.Tier = tier
	return res, true
}

// cacheGet looks key up in the tiered store (hit verification included, a
// disk hit is promoted) and reports which tier answered.
func (s *Server) cacheGet(key string) (*RewriteResult, string, bool) {
	e, tier, ok := s.st.Get(key)
	if !ok {
		return nil, "", false
	}
	res, err := resultFromEntry(e)
	if err != nil {
		// Checksum-valid bytes with an unparseable sidecar is a codec
		// version skew: drop the entry and rewrite rather than erroring.
		s.st.Delete(key)
		return nil, "", false
	}
	return res, tier, true
}

// storeAdd writes a fresh result through the tiers — and, under chaos, may
// flip one bit of a private copy of the memory-resident entry so the next
// hit exercises the verification/eviction path. In-flight responses keep
// the pristine bytes.
func (s *Server) storeAdd(key string, res *RewriteResult) {
	e, err := entryFromResult(res)
	if err != nil {
		return
	}
	s.st.Put(e)
	if inj := s.cfg.Chaos; inj.Roll(chaos.CacheCorrupt) {
		s.st.Mem().Corrupt(key, inj.Intn)
	}
}

// peerFetch consults key's shard owner on a local miss. A verified peer
// entry is stored locally (write-through, so the next miss is a local hit)
// and returned marked PeerHit; every failure mode — self-owned key, open
// breaker, peer miss, peer error, corrupt body — returns false and the
// caller rewrites locally.
func (s *Server) peerFetch(ctx context.Context, key string) (*RewriteResult, bool) {
	if s.clu == nil {
		return nil, false
	}
	sp := telemetry.TraceFrom(ctx).Span("peer_fetch")
	e, from, ok := s.clu.Fetch(ctx, key)
	sp.Annotate("hit", fmt.Sprint(ok))
	if !ok {
		sp.End()
		return nil, false
	}
	sp.Annotate("peer", from)
	sp.End()
	res, err := resultFromEntry(e)
	if err != nil {
		return nil, false
	}
	s.st.Put(e)
	res.PeerHit = true
	return res, true
}

// offerToOwner pushes a freshly completed rewrite to its shard owner so the
// next cluster-wide request for it is a peer hit instead of a second
// rewrite. The offer is asynchronous (the requester does not wait on a
// peer), bounded by the peer timeout, tracked for shutdown drain, and
// absorbed on failure — durability elsewhere is an optimization, never a
// dependency.
func (s *Server) offerToOwner(res *RewriteResult) {
	if s.clu == nil {
		return
	}
	if _, local := s.clu.Owner(res.Key); local {
		return
	}
	e, err := entryFromResult(res)
	if err != nil {
		return
	}
	s.offers.Add(1)
	s.spawn("offer", func() error {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.PeerTimeout)
		defer cancel()
		s.clu.Offer(ctx, e)
		return nil
	}, func(error) { s.offers.Done() })
}

// doRewrite performs the actual rewrite on a worker. The rewriters clone
// the input internally, so img may be shared across requests. With
// Resolve set, the resolver pass runs here on the worker too, and its
// per-tier summary rides along in the stats.
func doRewrite(img *obj.Image, cfg rewriters.Config, key string) (*RewriteResult, error) {
	res, err := rewriters.Rewrite(img, cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := res.Image.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("service: serializing result: %w", err)
	}
	st, err := wireStats(res.Stats)
	if err != nil {
		return nil, err
	}
	return &RewriteResult{
		Key: key, Method: cfg.Method, Target: cfg.Target.String(),
		ImageBytes: buf.Bytes(), Stats: st,
	}, nil
}

// Run executes an image on a simulated core through the worker pool, under
// the per-request deadline and the hard instruction budget. Unlike
// /rewrite there is no degradation path — the caller asked for execution,
// so a guest that cannot finish gets ErrDeadline (504) or ErrBudget (422).
func (s *Server) Run(ctx context.Context, req *RunRequest) (*RunResult, error) {
	startAt := time.Now()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	res, err := s.run(ctx, req)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.tel.deadlineHits.Inc()
			err = fmt.Errorf("%w: %v", ErrDeadline, err)
		}
		s.tel.requestErrors.With("run").Inc()
		return nil, err
	}
	s.tel.requestSeconds.With("run").Observe(time.Since(startAt).Seconds())
	return res, nil
}

func (s *Server) run(ctx context.Context, req *RunRequest) (*RunResult, error) {
	if req.Image == nil {
		return nil, fmt.Errorf("%w: no image", ErrBadRequest)
	}
	if err := req.Image.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	isa := req.Image.ISA
	if req.ISA != "" {
		var err error
		if isa, err = riscv.ParseISA(req.ISA); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	tr := telemetry.TraceFrom(ctx)
	tr.Annotate("image", req.Image.Name)
	tr.Annotate("isa", isa.String())
	v, err := s.submit(ctx, func() (any, error) {
		res, wall, err := s.doRun(ctx, req, isa)
		if err != nil {
			return nil, err
		}
		observeStage(s.tel.stageRunExec, wall)
		s.fold(func(t *totals) { t.addRun(res) })
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*RunResult), nil
}

// runSliceInstr is the /run scheduling quantum: the request context is
// checked between slices, so the cancellation latency of a runaway guest
// is one slice of emulation, not the whole run.
const runSliceInstr = 2_000_000

// chaosLoopAddr hosts the injected unbounded loop: a private page well
// above any image mapping and below the stack region.
const chaosLoopAddr = 0x6F00_0000

// doRun executes on a worker. Images are cloned so in-process callers may
// share one parsed image across concurrent runs. The request context is
// checked between slices and the hart carries the hard instruction budget.
// The returned duration is the wall-clock execution time (queue wait
// excluded), the denominator of emulated MIPS.
func (s *Server) doRun(ctx context.Context, req *RunRequest, isa riscv.Ext) (*RunResult, time.Duration, error) {
	imgs := []*obj.Image{req.Image.Clone()}
	if req.With != nil {
		if err := req.With.Validate(); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		imgs = append(imgs, req.With.Clone())
	}
	variants := make([]kernel.Variant, len(imgs))
	for i, img := range imgs {
		variants[i] = kernel.Variant{ISA: img.ISA, Image: img}
	}
	p, err := kernel.NewProcess(req.Image.Name, variants)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if err := p.MigrateTo(isa); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if s.cfg.RunMaxInstret > 0 {
		p.CPU.MaxInstret = uint64(s.cfg.RunMaxInstret)
	}
	if inj := s.cfg.Chaos; inj != nil {
		p.Chaos = inj
		if inj.Roll(chaos.EmuLoop) {
			// A genuinely unbounded emulation: point the hart at a private
			// page holding `jal x0, 0`. Only the budget or the deadline can
			// end this run — exactly what the watchdog exists for.
			armInfiniteLoop(p)
		}
	}
	if s.cfg.GuestProfile {
		p.Hooks().Prof = instrument.NewProfile()
		p.CPU.RefreshHooks()
		defer s.foldProfile(p, imgs)
	}
	execSpan := telemetry.TraceFrom(ctx).Span("run_exec")
	defer execSpan.End()
	startAt := time.Now()
	cycles, st, err := p.RunToExit(ctx, runSliceInstr)
	switch {
	case err != nil && err == ctx.Err():
		return nil, 0, err
	case err != nil:
		return nil, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	case p.Signal != 0:
		return nil, 0, fmt.Errorf("%w: %s killed by signal %d", ErrBadRequest, req.Image.Name, p.Signal)
	case st == kernel.StatusNeedMigration:
		return nil, 0, fmt.Errorf("%w: %s cannot run on %v", ErrBadRequest, req.Image.Name, isa)
	case st == kernel.StatusBudget:
		s.tel.budgetStops.Inc()
		return nil, 0, fmt.Errorf("%w: %d instructions retired without exiting", ErrBudget, p.CPU.Instret)
	}
	wall := time.Since(startAt)
	res := &RunResult{
		ExitCode:   p.ExitCode,
		Cycles:     cycles,
		Instret:    p.CPU.Instret,
		SimSeconds: emu.Seconds(cycles),
		Output:     string(p.Output),
		Counters:   p.Counters,
		Blocks:     p.CPU.Blocks,
	}
	if sec := wall.Seconds(); sec > 0 {
		res.EmulatedMIPS = float64(res.Instret) / sec / 1e6
	}
	return res, wall, nil
}

// foldProfile merges one run's guest-profiler samples into the per-image
// aggregate, symbolized against the run's images. The map is capped: past
// maxProfiledImages distinct image names, new images are silently
// unprofiled (existing ones keep folding).
func (s *Server) foldProfile(p *kernel.Process, imgs []*obj.Image) {
	prof := p.Hooks().Prof
	if prof.Blocks() == 0 {
		return
	}
	s.profMu.Lock()
	defer s.profMu.Unlock()
	ip := s.profiles[p.Name]
	if ip == nil {
		if len(s.profiles) >= maxProfiledImages {
			return
		}
		ip = &imageProfile{prof: instrument.NewProfile(), syms: telemetry.SymTableOf(imgs...)}
		s.profiles[p.Name] = ip
	}
	ip.prof.Merge(prof)
}

// ImageProfile is one image's aggregated guest profile (the /profile
// payload): hot blocks ranked by cycles and symbolized, plus
// flamegraph-folded lines.
type ImageProfile struct {
	Image   string               `json:"image"`
	Blocks  int                  `json:"blocks"`
	Cycles  uint64               `json:"cycles"`
	Instret uint64               `json:"instret"`
	Hot     []telemetry.HotBlock `json:"hot"`
	Folded  []string             `json:"folded"`
}

// Profiles snapshots every per-image guest profile, sorted by image name.
// Empty unless Config.GuestProfile is on and runs have completed.
func (s *Server) Profiles(topN int) []ImageProfile {
	if topN <= 0 {
		topN = 10
	}
	s.profMu.Lock()
	defer s.profMu.Unlock()
	out := make([]ImageProfile, 0, len(s.profiles))
	for name, ip := range s.profiles {
		cycles, instret := ip.prof.Totals()
		samples := ip.prof.Samples()
		out = append(out, ImageProfile{
			Image:   name,
			Blocks:  len(samples),
			Cycles:  cycles,
			Instret: instret,
			Hot:     telemetry.Report(samples, ip.syms, topN),
			Folded:  telemetry.Folded(name, samples, ip.syms),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Image < out[j].Image })
	return out
}

// armInfiniteLoop maps a page containing `jal x0, 0` and points the hart at
// it (the chaos.EmuLoop injection).
func armInfiniteLoop(p *kernel.Process) {
	p.CPU.Mem.Map(chaosLoopAddr, obj.PageSize, obj.PermRX)
	word := riscv.MustEncode(riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: 0})
	p.CPU.Mem.Poke(chaosLoopAddr, []byte{
		byte(word), byte(word >> 8), byte(word >> 16), byte(word >> 24),
	})
	p.CPU.PC = chaosLoopAddr
}

// Stats is the /stats payload: cache counters, pool gauges, and latency
// histograms per endpoint and per rewriter method.
type Stats struct {
	UptimeSeconds float64    `json:"uptime_seconds"`
	Health        string     `json:"health"`
	Workers       int        `json:"workers"`
	QueueDepth    int        `json:"queue_depth"`
	QueueCap      int        `json:"queue_cap"`
	Running       int64      `json:"running"`
	Accepted      uint64     `json:"accepted"`
	Completed     uint64     `json:"completed"`
	Rejected      uint64     `json:"rejected"`
	Deduped       uint64     `json:"deduped"`
	Cache         CacheStats `json:"cache"`
	// Store is the tiered-store snapshot: per-tier counters plus which tier
	// answered each lookup. Cluster is present only with peers configured.
	Store     store.TieredStats         `json:"store"`
	Cluster   *cluster.Stats            `json:"cluster,omitempty"`
	Emulator  EmuStats                  `json:"emulator"`
	Resolve   ResolveStats              `json:"resolve"`
	Fuzz      FuzzStats                 `json:"fuzz"`
	Faults    FaultStats                `json:"faults"`
	Endpoints map[string]LatencySummary `json:"endpoints"`
	PerMethod map[string]LatencySummary `json:"per_method"`
	// Stages is the per-pipeline-stage latency breakdown (decode,
	// cache_lookup, singleflight_wait, queue_wait, rewrite, verify,
	// store_verify, run_exec, encode).
	Stages map[string]LatencySummary `json:"stages,omitempty"`
	Errors map[string]uint64         `json:"errors"`
	// Chaos is the injector's fire counts by fault kind; absent when chaos
	// is off.
	Chaos map[string]uint64 `json:"chaos,omitempty"`
}

// ResolveStats is the /stats resolver block: rewrite-side recovery
// tallies (sites and targets per confidence tier across resolver-on
// rewrites) plus the kernel-side runtime-rewrite faults that the
// pre-materialized rows actually avoided during /run executions.
type ResolveStats struct {
	Rewrites        uint64 `json:"rewrites"`
	SitesHigh       uint64 `json:"sites_high"`
	SitesMedium     uint64 `json:"sites_medium"`
	SitesLow        uint64 `json:"sites_low"`
	SitesUnresolved uint64 `json:"sites_unresolved"`
	TargetsHigh     uint64 `json:"targets_high"`
	TargetsMedium   uint64 `json:"targets_medium"`
	TargetsLow      uint64 `json:"targets_low"`
	RecoveredInsts  uint64 `json:"recovered_insts"`
	AvoidedRewrites uint64 `json:"avoided_rewrites"`
	FaultsAvoided   uint64 `json:"faults_avoided"`
}

// add folds one resolver-on rewrite's recovery stats (st.Resolve is set).
// Called only on cold rewrites (the worker path), so cache hits never
// double-count.
func (r *ResolveStats) add(st *RewriteStats) {
	sum := st.Resolve
	r.Rewrites++
	r.SitesHigh += uint64(sum.SitesHigh)
	r.SitesMedium += uint64(sum.SitesMedium)
	r.SitesLow += uint64(sum.SitesLow)
	r.SitesUnresolved += uint64(sum.SitesUnresolved)
	r.TargetsHigh += uint64(sum.TargetsHigh)
	r.TargetsMedium += uint64(sum.TargetsMedium)
	r.TargetsLow += uint64(sum.TargetsLow)
	r.RecoveredInsts += uint64(st.RecoveredInsts)
	r.AvoidedRewrites += uint64(st.AvoidedRewrites)
}

// Health returns the server's health state: unhealthy while draining or
// shut down, ok otherwise.
func (s *Server) Health() string {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return HealthUnhealthy
	}
	return HealthOK
}

// Stats snapshots the server's observables. Every number is read from the
// source /metrics renders — the telemetry registry, or the store and
// cluster snapshots its scrape-time counters sample — so the JSON blob and
// the Prometheus exposition cannot disagree.
func (s *Server) Stats() Stats {
	ts := s.st.TierStats()
	cs := CacheStats{Stats: ts.Memory}
	if total := cs.Hits + cs.Misses; total > 0 {
		cs.HitRatio = float64(cs.Hits) / float64(total)
	}
	m := s.tel
	tot := s.readTotals()
	es := tot.emu
	es.RunSeconds = m.stageRunExec.Snapshot().Sum
	if es.RunSeconds > 0 {
		es.EmulatedMIPS = float64(es.Instret) / es.RunSeconds / 1e6
	}
	es.BlockHitRatio = es.Blocks.HitRatio()
	es.RetiredPerDispatch = es.Blocks.RetiredPerDispatch()
	es.TraceSideExitRate = es.Blocks.SideExitRate()
	es.PICHitRatio = es.Blocks.PICHitRatio()
	fs := FaultStats{
		Panics:           m.panics.Value(),
		Rejects:          m.rewriteRejects.Value(),
		Degradations:     m.degradations.Value(),
		DeadlineExceeded: m.deadlineHits.Value(),
		BudgetStops:      m.budgetStops.Value(),
		CacheCorruptions: cs.CorruptEvictions,
	}
	if v := s.lastPanic.Load(); v != nil {
		fs.LastPanic = v.(string)
	}
	out := Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Health:        s.Health(),
		Faults:        fs,
		Chaos:         s.cfg.Chaos.Counts(),
		Workers:       s.cfg.Workers,
		QueueDepth:    len(s.queue),
		QueueCap:      s.cfg.QueueDepth,
		Running:       s.running.Load(),
		Accepted:      m.accepted.Value(),
		Completed:     m.completed.Value(),
		Rejected:      m.rejected.Value(),
		Deduped:       m.deduped.Value(),
		Cache:         cs,
		Store:         ts,
		Emulator:      es,
		Resolve:       tot.resolve,
		Fuzz:          tot.fuzz,
		Endpoints:     summaries(m.requestSeconds),
		PerMethod:     summaries(m.methodSeconds),
		Stages:        summaries(m.stageSeconds),
		Errors:        errorCounts(m.requestErrors),
	}
	out.Resolve.FaultsAvoided = tot.kernel.RewriteFaultsAvoided
	if s.fuzz != nil {
		out.Fuzz.Active = s.fuzz.activeCount()
	}
	if s.clu != nil {
		cls := s.clu.Snapshot()
		out.Cluster = &cls
	}
	return out
}
