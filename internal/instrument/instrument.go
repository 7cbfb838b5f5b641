// Package instrument defines the guest instrumentation ABI: a hook set the
// emulator compiles into its basic blocks and superblock traces at
// translation time. Four observers are defined — AFL-style edge-coverage
// bitmaps, cmp-operand logging (input-to-state correspondence, the REDQUEEN
// trick), memory-access tracing, and the per-block guest profile — plus the
// indirect-jump interceptor that regeneration baselines (Safer's pointer
// checks) have always used.
//
// The contract that makes the emulator usable as a fuzzing backend (Icicle's
// observation) is zero-cost-when-off: a nil hook set, or a hook set with no
// observers, must compile to the exact same µop stream as an uninstrumented
// emulator and pay at most a nil check per block dispatch. All observer
// state is preallocated fixed-size storage so per-execution resets
// (Hooks.ResetState, called from kernel.Process.Reset) never allocate —
// the fuzzing loop's steady state is allocation-free like every other hot
// path in the tree.
//
// The package is dependency-free: the emulator, the kernel and the
// renderers in internal/telemetry import it, never the other way around.
package instrument

import "sort"

const (
	// CovMapSize is the edge-coverage bitmap size (AFL's classic 64 KiB).
	// Edge indices are (cur ^ prev) masked to this range, with prev shifted
	// right one bit so A→B and B→A hash differently.
	CovMapSize = 1 << 16
	// CmpLogSize and MemLogSize are the cmp-operand and memory-access ring
	// capacities (entries).
	CmpLogSize = ringSize
	MemLogSize = ringSize
	// ProfileSize is the guest-profile table's slot count. At most
	// ProfileBlocks distinct blocks get a slot of their own, so linear
	// probes stay short; samples of later blocks fold into the spill sample.
	ProfileSize   = 1 << profileBits
	ProfileBlocks = ProfileSize * 3 / 4
	// SpillPC is the pseudo-pc under which Profile.Samples reports the
	// spill sample.
	SpillPC = ^uint64(0)

	ringSize    = 1 << 12
	profileBits = 12
)

// Coverage is an AFL-style edge-coverage bitmap. Edge records the
// transition into a block identified by id (a build-time hash of the block
// pc): the bitmap cell for (id ^ prev) is bumped and prev becomes id>>1.
// Counts saturate at 255 rather than wrapping so hit-count bucketing stays
// monotone.
//
// Edge is the only writer of Map. It also lists every cell it moves off
// zero, so Reset and the fuzzing loop's per-exec fold cost what the guest
// touched, not the 64 KiB bitmap.
type Coverage struct {
	Map     [CovMapSize]byte
	touched [CovMapSize]uint16
	n       int // cells listed in touched
	prev    uint32
}

// NewCoverage returns an empty coverage map.
func NewCoverage() *Coverage { return &Coverage{} }

// Edge records the transition into block id.
func (c *Coverage) Edge(id uint32) {
	i := (id ^ c.prev) & (CovMapSize - 1)
	cell := &c.Map[i]
	if *cell == 0 {
		c.touched[c.n] = uint16(i)
		c.n++
	}
	if *cell != 255 {
		*cell++
	}
	c.prev = id >> 1
}

// Touched returns the indices of the nonzero cells, in first-hit order.
// The slice aliases the coverage map's storage and is valid until the next
// Reset.
func (c *Coverage) Touched() []uint16 { return c.touched[:c.n] }

// Reset clears the touched cells and the edge-chain state without
// allocating.
func (c *Coverage) Reset() {
	for _, i := range c.touched[:c.n] {
		c.Map[i] = 0
	}
	c.n = 0
	c.prev = 0
}

// Edges counts the populated bitmap cells (distinct edges observed).
func (c *Coverage) Edges() int { return c.n }

// CmpEntry is one logged comparison: the branch pc and both operand values
// at execution time.
type CmpEntry struct {
	PC   uint64
	A, B uint64
}

// CmpLog is a ring of comparison operands, fed by every conditional branch
// the translator flagged at build time.
type CmpLog struct{ ring[CmpEntry] }

// NewCmpLog returns an empty comparison log.
func NewCmpLog() *CmpLog { return &CmpLog{} }

// Log records one comparison.
func (l *CmpLog) Log(pc, a, b uint64) { l.push(CmpEntry{PC: pc, A: a, B: b}) }

// MemEntry is one logged memory access.
type MemEntry struct {
	PC    uint64
	Addr  uint64
	Size  uint8
	Write bool
}

// MemTrace is a fixed ring of guest memory accesses, fed by every scalar
// integer and floating-point load/store (LB…SD, FLW/FLD/FSW/FSD) on all
// three engines. Accesses are logged when attempted, so a faulting access
// appears as the trace's final entry — exactly what crash triage wants to
// see. Vector loads/stores (VLE/VSE) are traced on no engine; DESIGN.md §13
// records the limitation.
type MemTrace struct{ ring[MemEntry] }

// NewMemTrace returns an empty access trace.
func NewMemTrace() *MemTrace { return &MemTrace{} }

// Access records one attempted access.
func (t *MemTrace) Access(pc, addr uint64, size uint8, write bool) {
	t.push(MemEntry{PC: pc, Addr: addr, Size: size, Write: write})
}

// ring is a fixed buffer keeping the most recent ringSize entries. N counts
// every entry recorded (it can exceed ringSize).
type ring[E any] struct {
	Buf [ringSize]E
	N   uint64
}

func (r *ring[E]) push(e E) {
	r.Buf[r.N&(ringSize-1)] = e
	r.N++
}

// Reset empties the ring without allocating.
func (r *ring[E]) Reset() { r.N = 0 }

// Len reports how many entries are currently readable (at most ringSize).
func (r *ring[E]) Len() int { return int(min(r.N, ringSize)) }

// Entry returns readable entry i (0 ≤ i < Len()), oldest first.
func (r *ring[E]) Entry(i int) E {
	if r.N > ringSize {
		return r.Buf[(r.N+uint64(i))&(ringSize-1)]
	}
	return r.Buf[i]
}

// BlockSample accumulates one basic block's execution totals.
type BlockSample struct {
	PC         uint64 `json:"pc"`
	Cycles     uint64 `json:"cycles"`
	Instret    uint64 `json:"instret"`
	Dispatches uint64 `json:"dispatches"`
}

// Profile is the guest profiler: per-block cycle, instret and dispatch
// totals in a fixed open-addressed table keyed by block start pc, so
// sampling never allocates. A slot is free while its Dispatches is zero
// (every Add counts at least one dispatch). Once ProfileBlocks blocks hold
// slots, samples of further blocks accumulate in one spill sample, so totals
// stay exact however many blocks run. Create one with NewProfile.
type Profile struct {
	tab   [ProfileSize]BlockSample
	n     int // occupied slots
	spill BlockSample
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{spill: BlockSample{PC: SpillPC}} }

// slot returns pc's accumulator, claiming a free slot on first sight.
func (p *Profile) slot(pc uint64) *BlockSample {
	for i := (pc * 0x9E3779B97F4A7C15) >> (64 - profileBits); ; i = (i + 1) & (ProfileSize - 1) {
		s := &p.tab[i]
		if s.Dispatches == 0 {
			if p.n == ProfileBlocks {
				return &p.spill
			}
			p.n++
			s.PC = pc
			return s
		}
		if s.PC == pc {
			return s
		}
	}
}

// Add records dispatches (at least one) of the block at pc that together
// retired instret instructions and charged cycles.
func (p *Profile) Add(pc, dispatches, instret, cycles uint64) {
	s := p.slot(pc)
	s.Instret += instret
	s.Cycles += cycles
	s.Dispatches += dispatches
}

// Merge folds o's samples into p (o's spill into p's spill).
func (p *Profile) Merge(o *Profile) {
	if o == nil {
		return
	}
	for _, s := range o.tab {
		if s.Dispatches != 0 {
			p.Add(s.PC, s.Dispatches, s.Instret, s.Cycles)
		}
	}
	p.spill.Cycles += o.spill.Cycles
	p.spill.Instret += o.spill.Instret
	p.spill.Dispatches += o.spill.Dispatches
}

// Reset empties the profile without allocating.
func (p *Profile) Reset() { *p = Profile{spill: BlockSample{PC: SpillPC}} }

// Samples returns every sample ranked by cycles (descending), ties broken
// by pc so the order is deterministic. A non-empty spill sample is
// included under SpillPC.
func (p *Profile) Samples() []BlockSample {
	out := make([]BlockSample, 0, p.n+1)
	for _, s := range p.tab {
		if s.Dispatches != 0 {
			out = append(out, s)
		}
	}
	if p.spill.Dispatches != 0 {
		out = append(out, p.spill)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// Blocks returns the number of samples Samples would return.
func (p *Profile) Blocks() int {
	if p.spill.Dispatches != 0 {
		return p.n + 1
	}
	return p.n
}

// Totals sums cycles and instret over all samples, spill included.
func (p *Profile) Totals() (cycles, instret uint64) {
	for i := range p.tab {
		cycles += p.tab[i].Cycles
		instret += p.tab[i].Instret
	}
	return cycles + p.spill.Cycles, instret + p.spill.Instret
}

// Hooks is the emulator's single hook registration surface.
//
// Indirect is the interceptor formerly known as emu.CPU.IndirectHook: it
// fires on every jalr before it retires, may rewrite the target and charge
// extra cycles, and is counted in IndirectCalls (the Table 2 "checks"
// metric). It is checked at run time, so installing or swapping it never
// invalidates translations — but it does veto jalr trace stitching, since a
// hook may redirect or patch code at every call.
//
// Cov, Cmp, Mem and Prof are pure observers: they cannot change guest
// behavior, so traces stitch and promote exactly as if they were absent
// (including across indirect jumps). Cmp and Mem participation is burned
// into µops at translation time — install them through emu.CPU.SetHooks,
// which keys the translation caches on the observer set so stale
// translations rebuild. Cov and Prof fire once per stitched block a
// dispatch enters, identically on the block and trace tiers.
type Hooks struct {
	Indirect      func(pc, target uint64) (newTarget, extraCycles uint64)
	IndirectCalls uint64

	Cov  *Coverage
	Cmp  *CmpLog
	Mem  *MemTrace
	Prof *Profile
}

// ResetState clears per-execution observer state (coverage bitmap, cmp log,
// access trace, profile) without allocating and without touching the
// registration itself or the cumulative IndirectCalls counter.
func (h *Hooks) ResetState() {
	if h == nil {
		return
	}
	if h.Cov != nil {
		h.Cov.Reset()
	}
	if h.Cmp != nil {
		h.Cmp.Reset()
	}
	if h.Mem != nil {
		h.Mem.Reset()
	}
	if h.Prof != nil {
		h.Prof.Reset()
	}
}

// Observing reports whether any pure observer is installed.
func (h *Hooks) Observing() bool {
	return h != nil && (h.Cov != nil || h.Cmp != nil || h.Mem != nil || h.Prof != nil)
}
