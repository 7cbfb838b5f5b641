// Package chaos is a deterministic, seeded fault-injection layer for the
// Chimera serving stack. The paper's safety argument (§4.3) is that every
// runtime failure of a rewrite is survivable: a partially-executed
// trampoline faults precisely and the kernel can always fall back to the
// original binary on a scalar core. This package lets the tests prove the
// same property for the whole software stack by injecting the failures the
// field would produce — panicking rewriters, stalled workers, corrupted
// cache entries, spurious emulator faults, migration storms — from a single
// seeded source, so a failing soak reproduces from its seed.
//
// The package deliberately depends on nothing inside the repository; the
// service, kernel, and emulator layers pull it in and ask it questions
// ("should this rewrite panic?"), so a nil *Injector means "chaos off" and
// costs one nil check per site.
package chaos

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

// Fault kinds. Each maps to one injection site in the stack.
const (
	// RewritePanic panics inside a rewrite running on a pool worker.
	RewritePanic Kind = iota
	// RewriteStall makes a worker stall mid-rewrite (slow/stuck worker).
	RewriteStall
	// CacheCorrupt flips one bit in a freshly-inserted cache entry.
	CacheCorrupt
	// SpuriousFault raises an emulator fault that the instruction stream
	// does not justify (the kernel must recognize and absorb it).
	SpuriousFault
	// MigrationStorm spuriously asks the scheduler to migrate a FAM task.
	MigrationStorm
	// EmuLoop points a /run execution at a genuine unbounded loop, so only
	// the instruction budget can end it.
	EmuLoop
	// DiskTornWrite leaves a truncated entry file in the disk store (the
	// on-disk image of a crash mid-write that bypassed the rename protocol);
	// the read path's checksum must catch it.
	DiskTornWrite
	// DiskBitFlip flips one bit in the bytes a disk-store read returns
	// (media corruption); verification must turn it into a miss.
	DiskBitFlip
	// DiskENOSPC fails a disk-store write as if the volume were full; the
	// memory tier must keep serving the entry.
	DiskENOSPC
	// PeerTimeout stalls a peer-protocol response past the client's
	// deadline, so the requester must fall back to rewriting locally.
	PeerTimeout
	// PeerError answers a peer-protocol request with HTTP 500.
	PeerError
	// PeerCorrupt flips one bit in a peer-protocol response body; the
	// requester's checksum verification must reject it.
	PeerCorrupt
	numKinds
)

var kindNames = [numKinds]string{
	"rewrite_panic", "rewrite_stall", "cache_corrupt",
	"spurious_fault", "migration_storm", "emu_loop",
	"disk_torn_write", "disk_bit_flip", "disk_enospc",
	"peer_timeout", "peer_error", "peer_corrupt",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Kinds lists every fault kind (for iteration in reports and tests).
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Sentinel errors attached to injected failures so downstream layers can
// tell injected chaos from organic faults.
var (
	// ErrInjected marks an emulator fault that no instruction justified.
	// The kernel treats such faults as spurious: it re-validates the
	// faulting instruction and resumes instead of escalating to a signal.
	ErrInjected = errors.New("chaos: injected spurious fault")
)

// PanicValue is the value injected rewriter panics carry, so panic
// recovery sites can assert they caught chaos and not a real bug.
const PanicValue = "chaos: injected rewriter panic"

// Config sets the per-kind firing rates, each a probability in [0, 1].
// Rates must stay below 1 for kinds that gate forward progress
// (MigrationStorm, SpuriousFault), or the injected retries never end.
type Config struct {
	Rates map[Kind]float64
	// Stall is how long a RewriteStall holds its worker (default 50ms).
	Stall time.Duration
}

// DefaultConfig is a moderate all-kinds mix for soak testing.
func DefaultConfig() Config {
	return Config{
		Rates: map[Kind]float64{
			RewritePanic:   0.05,
			RewriteStall:   0.05,
			CacheCorrupt:   0.05,
			SpuriousFault:  0.05,
			MigrationStorm: 0.02,
			EmuLoop:        0.02,
			DiskTornWrite:  0.05,
			DiskBitFlip:    0.05,
			DiskENOSPC:     0.05,
			PeerTimeout:    0.05,
			PeerError:      0.05,
			PeerCorrupt:    0.05,
		},
		Stall: 50 * time.Millisecond,
	}
}

// Injector answers "should this fault fire?" from a single seeded stream
// and tallies everything it injects. The decision sequence is a pure
// function of the seed; under concurrency the mapping of decisions to
// requests depends on goroutine interleaving, but the totals are
// reproducible to within scheduling noise and every decision is counted.
//
// A nil *Injector is valid and injects nothing.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	seed  int64
	rates [numKinds]float64
	stall time.Duration

	fired [numKinds]atomic.Uint64
	rolls atomic.Uint64
}

// New builds an injector from a seed and a config. Rates outside [0, 1]
// are clamped.
func New(seed int64, cfg Config) *Injector {
	in := &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		seed:  seed,
		stall: cfg.Stall,
	}
	if in.stall <= 0 {
		in.stall = 50 * time.Millisecond
	}
	for k, r := range cfg.Rates {
		if k >= numKinds {
			continue
		}
		in.rates[k] = min(max(r, 0), 1)
	}
	return in
}

// Default is New with DefaultConfig rates.
func Default(seed int64) *Injector { return New(seed, DefaultConfig()) }

// Seed returns the injector's seed (for failure reports).
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Roll decides whether a fault of kind k fires at this site, counting it
// when it does. Nil-safe: a nil injector never fires.
func (in *Injector) Roll(k Kind) bool {
	if in == nil || k >= numKinds || in.rates[k] == 0 {
		return false
	}
	in.rolls.Add(1)
	in.mu.Lock()
	hit := in.rng.Float64() < in.rates[k]
	in.mu.Unlock()
	if hit {
		in.fired[k].Add(1)
	}
	return hit
}

// Intn returns a deterministic value in [0, n) from the injector's stream
// (used to pick which bit a CacheCorrupt flips). n must be positive.
func (in *Injector) Intn(n int) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

// Stall blocks for the configured stall duration or until ctx ends,
// returning ctx's error if it ended first. It is the RewriteStall payload:
// the worker goroutine is genuinely held, so deadlines and shutdown
// draining are exercised for real.
func (in *Injector) Stall(ctx context.Context) error {
	d := 50 * time.Millisecond
	if in != nil {
		d = in.stall
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Fired reports how many faults of kind k the injector has fired.
func (in *Injector) Fired(k Kind) uint64 {
	if in == nil || k >= numKinds {
		return 0
	}
	return in.fired[k].Load()
}

// Counts snapshots every kind's fired tally, keyed by kind name. Nil
// injectors return nil (so /stats omits the block when chaos is off).
func (in *Injector) Counts() map[string]uint64 {
	if in == nil {
		return nil
	}
	out := make(map[string]uint64, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		out[k.String()] = in.fired[k].Load()
	}
	return out
}

// TotalFired sums fired faults across all kinds.
func (in *Injector) TotalFired() uint64 {
	if in == nil {
		return 0
	}
	var total uint64
	for k := Kind(0); k < numKinds; k++ {
		total += in.fired[k].Load()
	}
	return total
}
