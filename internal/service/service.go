// Package service turns the rewriters into a long-running, concurrent
// "Chimera-as-a-service" daemon. The paper's deployment story (§4.2) is
// that a binary is rewritten once per target ISA and the result is reused
// by every process and core that runs it; this package is that amortization
// made explicit: a content-addressed rewrite cache (SHA-256 of the image's
// wire form + canonicalized options) held in one checksummed memory LRU
// (internal/store), singleflight deduplication so N concurrent identical
// requests share one rewrite, a Workers-sized execution semaphore with
// per-request context cancellation and graceful drain, and an HTTP JSON
// front end (cmd/chimera-served). Work runs on the goroutine that asked for
// it: a rewrite on the singleflight leader's, a /run on its handler's.
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
	// Workers is the number of rewrites and runs that execute at once
	// (default GOMAXPROCS). A request past that blocks until a slot frees
	// or its context ends — closed-loop backpressure, not load shedding.
	Workers int
	// CacheBytes is the rewrite cache's byte budget (default 256 MiB).
	CacheBytes int64
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
	// /fuzz). Campaigns run on dedicated goroutines outside the execution
	// slots (default 4; negative disables the endpoint).
	MaxCampaigns int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
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
// rewrite produced, and the same Stats. Callers must not mutate ImageBytes
// or Stats.Resolve: they are shared with the cache and with concurrent
// requests.
type RewriteResult struct {
	Key        string       `json:"key"` // canonical content address
	Method     string       `json:"method"`
	Target     string       `json:"target"`
	ImageBytes []byte       `json:"image"`
	Stats      RewriteStats `json:"stats"`
	CacheHit   bool         `json:"cache_hit"`
	Deduped    bool         `json:"deduped"` // shared an in-flight identical rewrite
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
	// wall-clock second of the run, in millions.
	EmulatedMIPS float64 `json:"emulated_mips"`
	// Blocks is the hart's basic-block translation cache tally for this run.
	Blocks emu.BlockStats `json:"blocks"`
}

// Server is the rewrite-as-a-service daemon: an execution semaphore in
// front of the rewriters, with the cache and singleflight layered above it.
type Server struct {
	cfg   Config
	start time.Time

	// slots holds one token per executing request (cap Workers); waiting
	// counts requests blocked on a free slot.
	slots   chan struct{}
	waiting atomic.Int64
	drained chan struct{}
	stopped sync.Once

	// mu gates admission against shutdown: execute holds the read side
	// while it adds to admitted, so once Shutdown acquires the write side
	// every admitted request is counted and admitted.Wait races no Add.
	mu       sync.RWMutex
	closed   bool
	admitted sync.WaitGroup

	cache *store.Memory // the checksummed rewrite cache

	flight flightGroup

	// tel is the single source of truth for every request counter and
	// latency distribution the server owns: /metrics renders it directly
	// and /stats is rebuilt from it, so the two views cannot disagree.
	// Cache counts stay in cache, run, resolver and campaign sums in tot,
	// and /metrics samples them.
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

// NewServer is New for the repo benchmark, which checks an error that New
// cannot return. It is deleted with the next change to benchmark/.
func NewServer(cfg Config) (*Server, error) { return New(cfg), nil }

// New returns a server ready to serve.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	tel := newServiceMetrics()
	s := &Server{
		cfg:      cfg,
		start:    time.Now(),
		slots:    make(chan struct{}, cfg.Workers),
		drained:  make(chan struct{}),
		tel:      tel,
		profiles: make(map[string]*imageProfile),
	}
	s.cache = store.NewMemory(cfg.CacheBytes, store.Counters{Verify: tel.stageVerify})
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
	r.GaugeFunc("chimera_workers", "number of execution slots: requests that may run at once",
		func() float64 { return float64(s.cfg.Workers) })
	r.GaugeFunc("chimera_queue_depth", "requests currently waiting for an execution slot",
		func() float64 { return float64(s.waiting.Load()) })
	r.GaugeFunc("chimera_requests_running", "requests currently running in an execution slot",
		func() float64 { return float64(s.running.Load()) })
	if s.fuzz != nil {
		r.GaugeFunc("chimera_fuzz_campaigns_active", "fuzzing campaigns currently running",
			func() float64 { return float64(s.fuzz.activeCount()) })
	}
	r.GaugeFunc("chimera_cache_entries", "memory-tier rewrite cache entries",
		func() float64 { return float64(s.cache.Len()) })
	r.GaugeFunc("chimera_cache_bytes", "memory-tier rewrite cache resident bytes",
		func() float64 { return float64(s.cache.Bytes()) })
	r.GaugeFunc("chimera_cache_budget_bytes", "memory-tier rewrite cache byte budget",
		func() float64 { return float64(cfg.CacheBytes) })
	return s
}

// Metrics exposes the server's telemetry registry (the /metrics handler).
func (s *Server) Metrics() *telemetry.Registry { return s.tel.reg }

// Tracer exposes the request tracer (nil when tracing is disabled).
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// execute runs fn on the calling goroutine once one of the Workers
// execution slots is free. A request admitted before Shutdown always gets
// its slot unless ctx ends first, in which case fn never runs. A panic in
// fn (a rewriter bug, or chaos.RewritePanic) fails only its own request:
// it comes back as an ErrWorkerPanic error, and its value is kept in
// /stats for diagnosis.
func (s *Server) execute(ctx context.Context, fn func() error) (err error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.tel.rejected.Inc()
		return ErrShuttingDown
	}
	s.admitted.Add(1)
	s.mu.RUnlock()
	defer s.admitted.Done()
	s.tel.accepted.Inc()

	qspan := telemetry.TraceFrom(ctx).Span("queue_wait")
	enq := time.Now()
	s.waiting.Add(1)
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	case <-ctx.Done():
	}
	s.waiting.Add(-1)
	qspan.End()
	if err := ctx.Err(); err != nil {
		return err // canceled while it waited: fn never runs
	}
	observeStage(s.tel.stageQueueWait, time.Since(enq))
	s.running.Add(1)
	defer func() {
		if r := recover(); r != nil {
			s.tel.panics.Inc()
			s.lastPanic.Store(fmt.Sprint(r))
			err = fmt.Errorf("%w: %v", ErrWorkerPanic, r)
		}
		s.running.Add(-1)
		s.tel.completed.Inc()
	}()
	return fn()
}

// Shutdown stops accepting requests and drains: every request admitted
// before the gate flipped runs to completion. It returns once none is left
// or ctx ends (the drain goes on in the background either way).
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopped.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.spawn("drain", func() error {
			s.admitted.Wait()
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
// then one attempt in an execution slot. A rewrite failure
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

	if res, hit := s.lookup(tr, key, cfg, startAt); hit {
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
		if res, hit := s.lookup(tr, key, cfg, startAt); hit {
			return res, nil
		}
	}

	flightSpan := tr.Span("singleflight")
	flightStart := time.Now()
	val, err, shared := s.flight.do(ctx, key, s.spawn, func() (*RewriteResult, error) {
		// The rewrite runs INSIDE the flight so every caller shares its
		// outcome. It runs on a context that outlives the first caller's
		// client but keeps its request deadline, so a caller that hangs up
		// fails no other.
		fctx := context.WithoutCancel(ctx)
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			fctx, cancel = context.WithDeadline(fctx, startAt.Add(s.cfg.RequestTimeout))
			defer cancel()
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

// rewriteOnce is the singleflight leader's rewrite: one attempt in an
// execution slot, on the leader's goroutine, stored on success. Rewriter
// rejects are counted here; every failure is the caller's to degrade.
func (s *Server) rewriteOnce(ctx context.Context, img *obj.Image, cfg rewriters.Config, key string) (*RewriteResult, error) {
	tr := telemetry.TraceFrom(ctx)
	asp := tr.Span("rewrite_attempt")
	var res *RewriteResult
	err := s.execute(ctx, func() (err error) {
		res, err = s.doRewriteChaos(ctx, img, cfg, key)
		return err
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
	storeSpan := tr.Span("cache_store")
	s.storeAdd(res)
	storeSpan.End()
	return res, nil
}

// doRewriteChaos interposes the chaos injector between the execution slot
// and the rewriter: stalls hold the slot for real (bounded only by the
// request context) and panics unwind through execute's recover. With a nil
// injector every roll is false.
func (s *Server) doRewriteChaos(ctx context.Context, img *obj.Image, cfg rewriters.Config, key string) (*RewriteResult, error) {
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

// lookup is the cache_lookup stage. A hit comes back marked as one, and
// ends the request. Its method and target are the request's: key encodes
// both, so they are the ones the stored rewrite ran with.
func (s *Server) lookup(tr *telemetry.Trace, key string, cfg rewriters.Config, startAt time.Time) (*RewriteResult, bool) {
	span := tr.Span("cache_lookup")
	start := time.Now()
	e, hit := s.cache.Get(key)
	observeStage(s.tel.stageCacheLookup, time.Since(start))
	span.Annotate("hit", fmt.Sprint(hit))
	span.End()
	if !hit {
		return nil, false
	}
	s.tel.requestSeconds.With("rewrite").Observe(time.Since(startAt).Seconds())
	return &RewriteResult{
		Key:        key,
		Method:     cfg.Method,
		Target:     cfg.Target.String(),
		ImageBytes: e.Data,
		Stats:      e.Value.(RewriteStats),
		CacheHit:   true,
	}, true
}

// storeAdd puts a fresh result in the cache — and, under chaos, may flip
// one bit of a private copy of the resident entry so the next hit
// exercises the verification/eviction path. In-flight responses keep the
// pristine bytes.
func (s *Server) storeAdd(res *RewriteResult) {
	s.cache.Put(&store.Entry{Key: res.Key, Value: res.Stats, Data: res.ImageBytes})
	if inj := s.cfg.Chaos; inj.Roll(chaos.CacheCorrupt) {
		s.cache.Corrupt(res.Key, inj.Intn)
	}
}

// doRewrite performs the actual rewrite. The rewriters clone the input
// internally, so img may be shared across requests. With Resolve set, the
// resolver pass runs here too, and its per-tier summary rides along in the
// stats.
func doRewrite(img *obj.Image, cfg rewriters.Config, key string) (*RewriteResult, error) {
	res, err := rewriters.Rewrite(img, cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := res.Image.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("service: serializing result: %w", err)
	}
	return &RewriteResult{
		Key: key, Method: cfg.Method, Target: cfg.Target.String(),
		ImageBytes: buf.Bytes(), Stats: res.Stats,
	}, nil
}

// Run executes an image on a simulated core in an execution slot, under
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
	var res *RunResult
	err := s.execute(ctx, func() error {
		r, wall, err := s.doRun(ctx, req, isa)
		if err != nil {
			return err
		}
		observeStage(s.tel.stageRunExec, wall)
		s.fold(func(t *totals) { t.addRun(r) })
		res = r
		return nil
	})
	return res, err
}

// runSliceInstr is the /run scheduling quantum: the request context is
// checked between slices, so the cancellation latency of a runaway guest
// is one slice of emulation, not the whole run.
const runSliceInstr = 2_000_000

// chaosLoopAddr hosts the injected unbounded loop: a private page well
// above any image mapping and below the stack region.
const chaosLoopAddr = 0x6F00_0000

// doRun executes in an execution slot. Images are cloned so in-process callers may
// share one parsed image across concurrent runs. The request context is
// checked between slices and the hart carries the hard instruction budget.
// The returned duration is the wall-clock execution time (slot wait
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

// Stats is the /stats payload: cache counters, slot gauges, and latency
// histograms per endpoint and per rewriter method.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Health        string  `json:"health"`
	Workers       int     `json:"workers"`
	// Queued is requests waiting for an execution slot.
	Queued    int64      `json:"queue_depth"`
	Running   int64      `json:"running"`
	Accepted  uint64     `json:"accepted"`
	Completed uint64     `json:"completed"`
	Rejected  uint64     `json:"rejected"`
	Deduped   uint64     `json:"deduped"`
	Cache     CacheStats `json:"cache"`
	// Store is the cache's lookup tally in the shape the repo benchmark
	// reads (see store.TieredStats); it is not part of the JSON.
	Store     store.TieredStats         `json:"-"`
	Emulator  EmuStats                  `json:"emulator"`
	Resolve   ResolveStats              `json:"resolve"`
	Fuzz      FuzzStats                 `json:"fuzz"`
	Faults    FaultStats                `json:"faults"`
	Endpoints map[string]LatencySummary `json:"endpoints"`
	PerMethod map[string]LatencySummary `json:"per_method"`
	// Stages is the per-pipeline-stage latency breakdown (decode,
	// cache_lookup, singleflight_wait, queue_wait, rewrite, verify,
	// run_exec, encode).
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
// Called only on cold rewrites (in an execution slot), so cache hits never
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
// source /metrics renders — the telemetry registry, or the cache snapshot
// its scrape-time counters sample — so the JSON blob and the Prometheus
// exposition cannot disagree.
func (s *Server) Stats() Stats {
	cs := CacheStats{Stats: s.cache.Stats()}
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
		Queued:        s.waiting.Load(),
		Running:       s.running.Load(),
		Accepted:      m.accepted.Value(),
		Completed:     m.completed.Value(),
		Rejected:      m.rejected.Value(),
		Deduped:       m.deduped.Value(),
		Cache:         cs,
		Store:         store.TieredStats{MemHits: cs.Hits, Misses: cs.Misses},
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
	return out
}
