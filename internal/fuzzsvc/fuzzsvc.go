// Package fuzzsvc runs coverage-guided fuzzing campaigns against guest
// binaries as a first-class service mode: the guest reads its test case via
// read(2), the emulator's instrumentation hooks (internal/instrument)
// report edge coverage and comparison operands, and a deterministic
// mutation loop climbs the coverage landscape — AFL-style havoc plus
// REDQUEEN-style input-to-state substitutions from the cmp log. Crashes are
// bucketed by (signal, faulting pc) and each fresh bucket is triaged with
// the byte-level delta-debugger (fuzz.MinimizeBytes) into a minimal
// reproducer.
//
// A campaign is fully deterministic: the same Config (seed, corpus, budget)
// replays the same exec sequence, verified end-to-end by an FNV-64a hash
// chain over every execution. That makes campaign behavior testable and
// lets the service deduplicate repeated campaign requests by digest.
package fuzzsvc

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"github.com/eurosys26p57/chimera/internal/chaos"
	"github.com/eurosys26p57/chimera/internal/fuzz"
	"github.com/eurosys26p57/chimera/internal/instrument"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
)

// corpusCap bounds the interesting-input set; past it, new coverage still
// counts but the input is not kept (a campaign is an exploration bound, not
// an archive).
const corpusCap = 1024

// dictCap bounds the cmp-derived dictionary.
const dictCap = 256

// queueCap bounds the deterministic candidate queue (input-to-state
// substitutions awaiting execution).
const queueCap = 4096

// Config parameterizes one campaign.
type Config struct {
	// Image is the guest binary. It must read its input via read(2)
	// (syscall 63) and will be re-executed via Process.Reset, so repeated
	// runs are translation- and allocation-free.
	Image *obj.Image
	// Seeds are the initial corpus entries. Empty means one 16-byte zero
	// seed.
	Seeds [][]byte
	// MaxExecs caps total executions, triage included (default 50000).
	MaxExecs uint64
	// MaxInput caps generated input length in bytes (default 256).
	MaxInput int
	// ExecBudget is the per-execution instruction budget; an execution
	// still running past it is a hang (default 1e6).
	ExecBudget uint64
	// Seed drives every random choice the campaign makes.
	Seed int64
	// StopOnCrash ends the campaign once the first crash bucket is triaged
	// instead of running the exec budget out.
	StopOnCrash bool
	// Chaos, when non-nil, is installed on the guest process; campaigns
	// must absorb injected faults transparently.
	Chaos *chaos.Injector
}

func (c Config) withDefaults() Config {
	if c.MaxExecs == 0 {
		c.MaxExecs = 50_000
	}
	if c.MaxInput <= 0 {
		c.MaxInput = 256
	}
	if c.ExecBudget == 0 {
		c.ExecBudget = 1_000_000
	}
	return c
}

// Crash is one triaged crash bucket.
type Crash struct {
	// Signal is the fatal signal number (kernel.Process.Signal).
	Signal int `json:"signal"`
	// PC is the faulting program counter.
	PC uint64 `json:"pc"`
	// Count is how many executions landed in this bucket.
	Count uint64 `json:"count"`
	// Input is the first reproducer found.
	Input []byte `json:"input"`
	// Minimized is the delta-debugged reproducer.
	Minimized []byte `json:"minimized"`
	// FoundAtExec is the execution index that discovered the bucket.
	FoundAtExec uint64 `json:"found_at_exec"`
}

// Snapshot is a point-in-time view of campaign progress, safe to take
// while the campaign runs.
type Snapshot struct {
	Execs     uint64  `json:"execs"`
	MaxExecs  uint64  `json:"max_execs"`
	Hangs     uint64  `json:"hangs"`
	SimErrors uint64  `json:"sim_errors"`
	Corpus    int     `json:"corpus"`
	Edges     int     `json:"edges"`
	Crashes   []Crash `json:"crashes,omitempty"`
	// TraceDigest is the FNV-64a hash chain over every execution: two
	// campaigns with equal configs produce equal digests.
	TraceDigest string  `json:"trace_digest"`
	Done        bool    `json:"done"`
	Elapsed     float64 `json:"elapsed_seconds"`
	ExecsPerSec float64 `json:"execs_per_sec"`
}

type crashKey struct {
	signal int
	pc     uint64
}

// Campaign is one running (or finished) fuzzing campaign.
type Campaign struct {
	cfg Config
	p   *kernel.Process
	cov *instrument.Coverage
	cmp *instrument.CmpLog
	rng *rand.Rand

	// virgin is the accumulated coverage bitmap with AFL hit-count
	// bucketing: a cell's bits record which count buckets have been seen.
	// virginEdges counts its nonzero cells.
	virgin      [instrument.CovMapSize]byte
	virginEdges int

	// started is set in New, before the Run goroutine exists, and is
	// immutable afterwards.
	started time.Time

	// Run-goroutine-only state.
	corpus   [][]byte
	queue    [][]byte
	dict     [][]byte
	dictSeen map[string]bool

	// mu guards everything Snapshot reads while Run executes.
	mu        sync.Mutex
	execs     uint64
	hangs     uint64
	simErrors uint64
	corpusLen int
	edges     int
	crashes   []*Crash
	crashIdx  map[crashKey]int
	trace     uint64 // FNV-64a hash-chain state
	done      bool
	elapsed   time.Duration
}

// New builds a campaign: the guest is loaded once, coverage and cmp
// observers are installed on its hook set, and every execution afterwards
// is a Reset-and-run cycle.
func New(cfg Config) (*Campaign, error) {
	cfg = cfg.withDefaults()
	if cfg.Image == nil {
		return nil, errors.New("fuzzsvc: nil image")
	}
	v, err := kernel.VariantFromImage(cfg.Image)
	if err != nil {
		return nil, fmt.Errorf("fuzzsvc: %w", err)
	}
	p, err := kernel.NewProcess("fuzz:"+cfg.Image.Name, []kernel.Variant{v})
	if err != nil {
		return nil, fmt.Errorf("fuzzsvc: %w", err)
	}
	p.Chaos = cfg.Chaos
	h := p.Hooks()
	h.Cov = instrument.NewCoverage()
	h.Cmp = instrument.NewCmpLog()
	p.CPU.RefreshHooks()
	c := &Campaign{
		cfg:      cfg,
		p:        p,
		cov:      h.Cov,
		cmp:      h.Cmp,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		dictSeen: make(map[string]bool),
		crashIdx: make(map[crashKey]int),
		started:  time.Now(),
	}
	c.trace = fnv.New64a().Sum64() // the chain's deterministic basis
	return c, nil
}

// Run executes the campaign to completion: seeds first, then the mutation
// loop until the exec budget runs out, StopOnCrash fires, or ctx ends. A
// campaign runs once: when Run returns it releases the guest process and
// its observers, and keeps only the results Snapshot and CorpusEntries
// report.
func (c *Campaign) Run(ctx context.Context) error {
	defer func() {
		c.p, c.cov, c.cmp = nil, nil, nil
		c.mu.Lock()
		c.done = true
		c.elapsed = time.Since(c.started)
		c.mu.Unlock()
	}()
	seeds := c.cfg.Seeds
	if len(seeds) == 0 {
		seeds = [][]byte{make([]byte, 16)}
	}
	for _, s := range seeds {
		c.step(c.clamp(s), true)
	}
	if len(c.corpus) == 0 {
		// Every seed execution failed (execErr skips corpus admission), so
		// the mutation loop has nothing to draw from.
		return errors.New("fuzzsvc: no seed executed successfully; corpus is empty")
	}
	for c.snapExecs() < c.cfg.MaxExecs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if c.cfg.StopOnCrash && c.crashCount() > 0 {
			return nil
		}
		var input []byte
		if len(c.queue) > 0 {
			input = c.queue[0]
			c.queue = c.queue[1:]
		} else {
			base := c.corpus[c.rng.Intn(len(c.corpus))]
			input = c.havoc(base)
		}
		c.step(input, false)
	}
	return nil
}

// step runs one input through the guest and folds the outcome back into
// the campaign: hash chain, coverage feedback, corpus growth, cmp-log
// harvesting, and crash triage. forceCorpus admits the input regardless of
// coverage (seeds).
func (c *Campaign) step(input []byte, forceCorpus bool) {
	res := c.exec(input)
	c.record(input, res)
	if res.kind == execErr {
		c.mu.Lock()
		c.simErrors++
		c.mu.Unlock()
		return
	}
	if res.kind == execHang {
		c.mu.Lock()
		c.hangs++
		c.mu.Unlock()
	}
	if c.coverNew() || forceCorpus {
		if len(c.corpus) < corpusCap {
			c.mu.Lock()
			c.corpus = append(c.corpus, append([]byte(nil), input...))
			c.corpusLen = len(c.corpus)
			c.mu.Unlock()
		}
		c.harvest(input)
	}
	if res.kind == execCrash {
		c.onCrash(input, res)
	}
}

type execKind int

const (
	execOK execKind = iota
	execCrash
	execHang
	execErr
)

type execResult struct {
	kind   execKind
	signal int
	pc     uint64
	exit   uint64
}

// exec runs one input to completion under the per-exec instruction budget.
// Reset clears the previous execution's observer state (Coverage, CmpLog)
// without reallocating, so the loop is translation-warm and allocation-free
// in steady state.
func (c *Campaign) exec(input []byte) execResult {
	p := c.p
	p.SetInput(input)
	p.Reset()
	p.CPU.MaxInstret = p.CPU.Instret + c.cfg.ExecBudget
	_, st, err := p.RunToExit(context.Background(), c.cfg.ExecBudget)
	switch {
	case err != nil || st == kernel.StatusNeedMigration:
		return execResult{kind: execErr}
	case st == kernel.StatusBudget:
		return execResult{kind: execHang}
	case p.Signal != 0:
		return execResult{
			kind:   execCrash,
			signal: p.Signal,
			pc:     p.CPU.PC,
			exit:   p.ExitCode,
		}
	}
	return execResult{kind: execOK, exit: p.ExitCode}
}

// record extends the campaign's hash chain with one execution and charges
// the exec budget. The chain covers the input bytes and the classified
// outcome, so any behavioral divergence between two same-config campaigns
// changes the digest.
func (c *Campaign) record(input []byte, res execResult) {
	h := fnv.New64a()
	var buf [8]byte
	put64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	c.mu.Lock()
	put64(c.trace)
	put64(c.execs)
	put64(uint64(len(input)))
	h.Write(input)
	put64(uint64(res.kind))
	put64(uint64(res.signal))
	put64(res.pc)
	put64(res.exit)
	c.trace = h.Sum64()
	c.execs++
	c.mu.Unlock()
}

// bucketOf maps a raw edge hit count to its AFL count bucket bit.
func bucketOf(x byte) byte {
	switch {
	case x == 0:
		return 0
	case x == 1:
		return 1
	case x == 2:
		return 2
	case x == 3:
		return 4
	case x <= 7:
		return 8
	case x <= 15:
		return 16
	case x <= 31:
		return 32
	case x <= 127:
		return 64
	default:
		return 128
	}
}

// countBucket tabulates bucketOf for the per-exec coverage fold.
var countBucket = func() (t [256]byte) {
	for x := range t {
		t[x] = bucketOf(byte(x))
	}
	return t
}()

// coverNew folds the execution's coverage into the virgin map and reports
// whether any (edge, count-bucket) pair was new. Only the cells the
// execution touched can contribute, so it folds Coverage.Touched instead of
// scanning the bitmap.
func (c *Campaign) coverNew() bool {
	novel := false
	for _, i := range c.cov.Touched() {
		b := countBucket[c.cov.Map[i]]
		if v := c.virgin[i]; v&b != b {
			if v == 0 {
				c.virginEdges++
			}
			c.virgin[i] = v | b
			novel = true
		}
	}
	if novel {
		c.mu.Lock()
		c.edges = c.virginEdges
		c.mu.Unlock()
	}
	return novel
}

// onCrash buckets a crashing execution by (signal, pc) and triages fresh
// buckets: the first reproducer is delta-debugged to a minimal input whose
// re-execution still lands in the same bucket. Triage executions run
// through the same exec/record path, so they count against the budget and
// extend the hash chain — determinism holds through minimization.
func (c *Campaign) onCrash(input []byte, res execResult) {
	key := crashKey{signal: res.signal, pc: res.pc}
	c.mu.Lock()
	if i, ok := c.crashIdx[key]; ok {
		c.crashes[i].Count++
		c.mu.Unlock()
		return
	}
	cr := &Crash{
		Signal:      res.signal,
		PC:          res.pc,
		Count:       1,
		Input:       append([]byte(nil), input...),
		FoundAtExec: c.execs,
	}
	c.crashIdx[key] = len(c.crashes)
	c.crashes = append(c.crashes, cr)
	c.mu.Unlock()

	min := fuzz.MinimizeBytes(input, func(cand []byte) bool {
		if c.snapExecs() >= c.cfg.MaxExecs+2000 {
			// Triage may run modestly past the campaign budget but never
			// unboundedly: MinimizeBytes itself caps evaluations too.
			return false
		}
		r := c.exec(cand)
		c.record(cand, r)
		return r.kind == execCrash && r.signal == res.signal && r.pc == res.pc
	})
	c.mu.Lock()
	cr.Minimized = append([]byte(nil), min...)
	c.mu.Unlock()
}

func (c *Campaign) snapExecs() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.execs
}

func (c *Campaign) crashCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.crashes)
}

// clamp bounds one input to the configured maximum length.
func (c *Campaign) clamp(b []byte) []byte {
	if len(b) > c.cfg.MaxInput {
		b = b[:c.cfg.MaxInput]
	}
	return b
}

// Snapshot returns the campaign's current progress. Safe concurrently with
// Run.
func (c *Campaign) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Execs:       c.execs,
		MaxExecs:    c.cfg.MaxExecs,
		Hangs:       c.hangs,
		SimErrors:   c.simErrors,
		Corpus:      c.corpusLen,
		Edges:       c.edges,
		TraceDigest: fmt.Sprintf("%016x", c.trace),
		Done:        c.done,
	}
	el := c.elapsed
	if !c.done && !c.started.IsZero() {
		el = time.Since(c.started)
	}
	s.Elapsed = el.Seconds()
	if el > 0 {
		s.ExecsPerSec = float64(c.execs) / el.Seconds()
	}
	for _, cr := range c.crashes {
		s.Crashes = append(s.Crashes, *cr)
	}
	return s
}

// CorpusEntries returns a copy of the current corpus. Safe concurrently
// with Run: entries are append-only and appended under the campaign lock.
func (c *Campaign) CorpusEntries() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]byte, 0, len(c.corpus))
	for _, e := range c.corpus {
		out = append(out, append([]byte(nil), e...))
	}
	return out
}
