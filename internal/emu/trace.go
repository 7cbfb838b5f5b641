package emu

// Superblock trace engine — tier two of the two-tier translator.
//
// When a block's dispatch count crosses CPU.TraceThreshold, buildTrace
// stitches the chain hanging off it into one superblock: the µop vectors of
// the entry block and its predicted successors concatenated, with
// cross-block register and cycle state kept live across the seams.
// Conditional branches inside the trace become guarded side exits
// (expTaken/expNotTaken), JALs are folded (expFold), and indirect jumps are
// predicted through the entry chain's polymorphic inline cache (expJalr,
// guarded against the stitched target at runtime). A failed guard flushes
// architecturally precise state at the actual successor and falls back to
// the block tier, so the trace tier can never be observed misbehaving —
// only running faster.
//
// Successor prediction is profile-guided: the chain links and PIC entries
// consulted here were installed by past block-tier dispatches, and
// conditional branches pick the hotter side by block heat (profile.go).
// Cold code pays nothing — promotion is a single counter increment per
// block dispatch, and blocks whose chains cannot be stitched are pinned
// noTrace so they stop paying even that.
//
// Validity rides the same machinery as blocks: a trace records every code
// frame it was stitched from with that frame's patch generation, plus the
// address-space mapping generation and ISA. Poke into any spanned frame
// (through any address space sharing it), or any remap, invalidates the
// trace at the next dispatch boundary; the entry block then re-heats and
// the trace is rebuilt from fresh blocks.

import "github.com/eurosys26p57/chimera/internal/riscv"

const (
	// maxTraceBlocks bounds how many blocks one trace may stitch (loop
	// bodies revisit blocks, giving natural unrolling up to this bound).
	maxTraceBlocks = 16
	// maxTraceInsts bounds a trace's µop count.
	maxTraceInsts = 256
)

// trace is one compiled superblock.
type trace struct {
	mapGen uint64
	mem    *Memory
	isa    riscv.Ext
	obs    uint8 // observer mask the stitched µops were built under
	uops   []uop

	// last is the final stitched block; a planned exit from the trace's
	// terminal µop chains through its successor links, exactly as if the
	// block tier had just executed it.
	last *block

	// Frame validity: every code frame the stitched blocks span, with the
	// patch generations observed at stitch time.
	pages []*Page
	pgens []uint64

	// stitches lists the stitched blocks in stitch order, so a dispatch
	// reports to the per-dispatch observers exactly what the equivalent
	// block-tier dispatch sequence would have (observeDispatch).
	stitches []stitch
}

// stitch is one block stitched into a trace. start and cycles are what the
// stitches before it retire and charge when they run to completion (seam
// expectations burned in), so a run of stitches costs the difference of its
// ends. first indexes the first stitch of this block's run of consecutive
// stitches (an unrolled loop).
type stitch struct {
	pc     uint64
	cycles uint64
	covID  uint32
	start  int32 // first-µop index in trace.uops
	first  int32
}

// traceValid reports whether t may still run on the CPU's current address
// space, mapping generation, spanned-frame patch generations and ISA.
func (c *CPU) traceValid(t *trace) bool {
	if t.mem != c.Mem || t.mapGen != c.Mem.mapGen || t.isa != c.ISA || t.obs != c.obs {
		return false
	}
	for i, p := range t.pages {
		if p.gen != t.pgens[i] {
			return false
		}
	}
	return true
}

// newTrace pops a recycled trace from the hart's free list, then the
// arena's, or allocates a fresh one with full µop capacity so stitching
// never regrows it.
func (c *CPU) newTrace() *trace {
	if t := pop(&c.free.traces); t != nil {
		return t
	}
	if c.arena != nil {
		if t := pop(&c.arena.traces); t != nil {
			return t
		}
	}
	return &trace{uops: make([]uop, 0, maxTraceInsts)}
}

// recycleTrace detaches and pools b's trace (on invalidation or entry-block
// eviction), keeping the backing arrays for reuse.
func (c *CPU) recycleTrace(b *block) {
	if t := b.trace; t != nil {
		b.trace = nil
		c.freeTrace(t)
	}
}

// freeTrace clears t and parks it in the pool with its backing arrays,
// dropping the frames they point at.
func (c *CPU) freeTrace(t *trace) {
	clear(t.pages)
	*t = trace{uops: t.uops[:0], pages: t.pages[:0], pgens: t.pgens[:0], stitches: t.stitches[:0]}
	pool := c.pool()
	pool.traces = append(pool.traces, t)
}

// addFrame records a code frame and its current patch generation in the
// trace's validity set (deduplicated — loop traces revisit frames).
func (t *trace) addFrame(p *Page, gen uint64) {
	for _, q := range t.pages {
		if q == p {
			return
		}
	}
	t.pages = append(t.pages, p)
	t.pgens = append(t.pgens, gen)
}

// buildTrace stitches the superblock rooted at entry, following the hottest
// valid successor at every seam. Chains shorter than two blocks are not
// worth a second tier; such entries are pinned noTrace. The trace's
// terminal µop keeps expNone, so the trace exits exactly like the block
// that ended it.
func (c *CPU) buildTrace(entry *block) {
	t := c.newTrace()
	t.mapGen, t.mem, t.isa = c.Mem.mapGen, entry.mem, entry.isa
	t.obs = entry.obs
	b := entry
	nblocks := 0
	var cycles uint64
	for {
		t.addFrame(b.pg0, b.pgen0)
		if b.pg1 != nil {
			t.addFrame(b.pg1, b.pgen1)
		}
		s := stitch{pc: b.pc, covID: b.covID, start: int32(len(t.uops)), cycles: cycles, first: int32(nblocks)}
		if nblocks > 0 && t.stitches[nblocks-1].pc == b.pc {
			s.first = t.stitches[nblocks-1].first
		}
		t.stitches = append(t.stitches, s)
		t.uops = append(t.uops, b.uops...)
		t.last = b
		nblocks++
		if nblocks >= maxTraceBlocks {
			break
		}
		last := &t.uops[len(t.uops)-1]
		next := c.stitchSuccessor(b, last)
		if next == nil {
			break
		}
		if len(t.uops)+len(next.uops) > maxTraceInsts {
			// Undo the seam expectation: the terminal µop must exit with
			// block-tier semantics.
			last.expect = expNone
			break
		}
		for _, u := range b.uops[:len(b.uops)-1] {
			cycles += u.costN
		}
		if last.expect == expNotTaken || last.expect == expNone {
			cycles += last.costN
		} else {
			cycles += last.costT
		}
		b = next
	}
	if nblocks < 2 {
		entry.noTrace = true
		c.freeTrace(t)
		return
	}
	entry.trace = t
	c.Blocks.TracesBuilt++
}
