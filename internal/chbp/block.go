package chbp

import (
	"fmt"

	"github.com/eurosys26p57/chimera/internal/liveness"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/translate"
)

// regionItem is one original instruction inside a patch site's covered
// region.
type regionItem struct {
	addr     uint64
	inst     riscv.Inst
	isSource bool
	sew      riscv.SEW
}

// patchSite is one trampoline placement (Fig. 4): the source instruction(s)
// it services, the space it overwrites, and the semantic region its target
// block replaces.
type patchSite struct {
	start    uint64 // S: trampoline / trap address
	trapOnly bool   // entry via ebreak instead of SMILE
	// spaceEnd is S + trampoline space (first intact original byte); equal
	// to the source end for trap entries.
	spaceEnd uint64
	// region lists original instructions in [start, regionEnd) in order.
	region    []regionItem
	regionEnd uint64
	// upgrade holds the matched idiom for upgrade sites (replacement covers
	// the whole region at once).
	upgrade *translate.UpgradeSite
	// genReg, when nonzero, selects the Fig. 5 general-register trampoline
	// through this register instead of the gp-based SMILE.
	genReg riscv.Reg
	// resolved marks a site in resolver-recovered code (reachable only
	// through a statically resolved indirect target): its fault-table row
	// is pre-materialized behind a trap entry instead of a SMILE patch.
	resolved bool

	block targetBlock
}

// exitFixup records a vanilla exit trampoline whose pc-relative immediates
// are patched after layout.
type exitFixup struct {
	idx    int // auipc index in insts; jalr follows at idx+1
	target uint64
}

// targetBlock is the generated code for one patch site, before layout.
type targetBlock struct {
	insts []riscv.Inst
	fixes []exitFixup
	// keys maps an overwritten original address to the instruction index in
	// insts where its relocated copy begins (fault-table values).
	keys map[uint64]int
	// pos maps every region item's original address to its index in insts,
	// enabling intra-block back edges for loops the region fully covers.
	pos map[uint64]int
	// trapExits maps instruction indexes of exit ebreaks to resume
	// addresses.
	trapExits map[int]uint64
	// normalResume is the original address normal execution continues at (0
	// when the region ends in an unconditional jump).
	normalResume uint64
}

// blockBuilder accumulates a target block.
type blockBuilder struct {
	b       targetBlock
	gpValue uint64
}

func newBlockBuilder(gp uint64) *blockBuilder {
	bb := &blockBuilder{gpValue: gp}
	bb.b.keys = make(map[uint64]int)
	bb.b.pos = make(map[uint64]int)
	bb.b.trapExits = make(map[int]uint64)
	// Restore gp first: the SMILE trampoline clobbered it with the return
	// address (§4.2, Fig. 6 "Restoring gp").
	bb.li(riscv.GP, int64(gp))
	return bb
}

func (bb *blockBuilder) emit(in riscv.Inst) { bb.b.insts = append(bb.b.insts, in) }

// li materializes a 32-bit constant (the simulated address space fits).
func (bb *blockBuilder) li(rd riscv.Reg, v int64) {
	if v >= -2048 && v < 2048 {
		bb.emit(riscv.Inst{Op: riscv.ADDI, Rd: rd, Rs1: riscv.Zero, Imm: v})
		return
	}
	hi := (v + 0x800) >> 12
	lo := v - hi<<12
	bb.emit(riscv.Inst{Op: riscv.LUI, Rd: rd, Imm: hi})
	bb.emit(riscv.Inst{Op: riscv.ADDIW, Rd: rd, Rs1: rd, Imm: lo})
}

// exitJump emits a vanilla trampoline to an absolute target through exit
// register rd.
func (bb *blockBuilder) exitJump(target uint64, rd riscv.Reg) {
	bb.b.fixes = append(bb.b.fixes, exitFixup{idx: len(bb.b.insts), target: target})
	bb.emit(riscv.Inst{Op: riscv.AUIPC, Rd: rd})
	bb.emit(riscv.Inst{Op: riscv.JALR, Rd: riscv.Zero, Rs1: rd})
}

// exitTrap emits a trap-based exit resuming at the given original address.
func (bb *blockBuilder) exitTrap(resume uint64) {
	bb.b.trapExits[len(bb.b.insts)] = resume
	bb.emit(riscv.Inst{Op: riscv.EBREAK})
}

// key records that the relocated copy of the original instruction at addr
// starts at the current position.
func (bb *blockBuilder) key(addr uint64) { bb.b.keys[addr] = len(bb.b.insts) }

// relocatable reports whether an original instruction can be copied into a
// target block, and whether it must be the final instruction of the region
// (control flow leaves the block through it).
func relocatable(in riscv.Inst) (ok, mustBeLast bool) {
	switch {
	case in.Op == riscv.JALR:
		return false, false // unresolved indirect target
	case in.Op == riscv.EBREAK:
		return false, false // would alias trap trampolines
	case in.Op == riscv.JAL:
		return true, true
	case in.IsBranch():
		return true, true
	default:
		return true, false
	}
}

// relocate appends target-block instructions emulating the original
// instruction `in` located at origPC. Control-flow instructions terminate
// the block through exits chosen by the caller via the returned control
// descriptor.
type control struct {
	// taken is the absolute branch/jump target; zero if none.
	taken uint64
	// conditional marks a two-exit (branch) relocation.
	conditional bool
	// call marks a jal call: ra was set to the original return address and
	// the block exits to taken.
	call bool
}

func (bb *blockBuilder) relocate(in riscv.Inst, origPC uint64) *control {
	switch {
	case in.Op == riscv.AUIPC:
		// Recompute the pc-relative result for the original location.
		bb.li(in.Rd, int64(origPC)+in.Imm<<12)
		return nil
	case in.Op == riscv.JAL && in.Rd == riscv.RA:
		// A call: the return address must point back into original code so
		// the callee returns outside the block.
		bb.li(riscv.RA, int64(origPC)+int64(in.Len))
		return &control{taken: origPC + uint64(in.Imm), call: true}
	case in.Op == riscv.JAL:
		return &control{taken: origPC + uint64(in.Imm)}
	case in.IsBranch():
		return &control{taken: origPC + uint64(in.Imm), conditional: true}
	default:
		// Plain instruction: position-independent, copy verbatim (compressed
		// originals expand to their 4-byte form).
		cp := in
		cp.Len = 4
		bb.emit(cp)
		return nil
	}
}

// buildResult captures the per-site statistics of block construction.
type buildResult struct {
	deadRegFailTraditional bool
	deadRegFailShifted     bool
	exitShifted            int // instructions appended by exit-position shifting
	trapExits              int
}

// exitEnv provides what block building needs from the analysis phase.
type exitEnv struct {
	la *liveness.Analysis
	// next returns the instruction at addr, if recognized.
	next func(addr uint64) (riscv.Inst, bool)
	// isSource reports whether addr holds a source instruction; exit
	// shifting must not copy one into a block untranslated.
	isSource func(addr uint64) bool
	// enableShift enables exit-position shifting (§4.2, Fig. 8).
	enableShift bool
}

// chooseExit selects the exit register for a region whose last original
// instruction is at lastAddr, applying exit-position shifting when plain
// liveness fails: the region is extended by copying subsequent instructions
// until a dead register appears (Fig. 8). It returns the (possibly
// extended) resume address, the register, the list of extra instructions
// appended, and whether even shifting failed (trap exit required).
func chooseExit(env *exitEnv, lastAddr, resume uint64) (riscv.Reg, uint64, []regionItem, *buildResult) {
	res := &buildResult{}
	if r, ok := env.la.DeadAfter(lastAddr); ok {
		return r, resume, nil, res
	}
	res.deadRegFailTraditional = true
	if !env.enableShift {
		res.deadRegFailShifted = true
		return 0, resume, nil, res
	}
	// Shift the exit position forward, copying instructions into the block.
	var extra []regionItem
	addr := resume
	for len(extra) < maxShift {
		in, ok := env.next(addr)
		if !ok {
			break
		}
		if env.isSource != nil && env.isSource(addr) {
			break // never copy an untranslated source instruction
		}
		if ok, mustLast := relocatable(in); !ok || mustLast {
			// Control flow or unrelocatable instruction: cannot shift past.
			break
		}
		extra = append(extra, regionItem{addr: addr, inst: in})
		addr += uint64(in.Len)
		if r, ok := env.la.DeadAfter(extra[len(extra)-1].addr); ok {
			res.exitShifted = len(extra)
			return r, addr, extra, res
		}
	}
	res.deadRegFailShifted = true
	return 0, resume, nil, res
}

// buildSiteBlock generates the target block for a patch site (§4.2, Fig. 6).
func buildSiteBlock(site *patchSite, gp uint64, env *exitEnv, ctx *translate.Context,
	emptyPatch bool) (*buildResult, error) {

	bb := newBlockBuilder(gp)
	agg := &buildResult{}

	translateSource := func(it regionItem) error {
		if emptyPatch {
			// §6.2 empty-patching methodology: the target instructions
			// replicate the source instruction, isolating rewriting overhead.
			cp := it.inst
			cp.Len = 4
			bb.emit(cp)
			return nil
		}
		seq, err := translate.Downgrade(it.inst, it.sew, ctx)
		if err != nil {
			return fmt.Errorf("chbp: translating %s at %#x: %w", it.inst, it.addr, err)
		}
		for _, in := range seq {
			bb.emit(in)
		}
		return nil
	}

	endExit := func(lastAddr, resume uint64) error {
		reg, newResume, extra, res := chooseExit(env, lastAddr, resume)
		agg.deadRegFailTraditional = agg.deadRegFailTraditional || res.deadRegFailTraditional
		agg.deadRegFailShifted = agg.deadRegFailShifted || res.deadRegFailShifted
		agg.exitShifted += res.exitShifted
		for _, it := range extra {
			bb.relocate(it.inst, it.addr) // plain instructions only
		}
		if res.deadRegFailShifted {
			agg.trapExits++
			bb.exitTrap(resume)
			bb.b.normalResume = resume
			return nil
		}
		bb.exitJump(newResume, reg)
		bb.b.normalResume = newResume
		return nil
	}

	// terminalExit emits the exit legs for a relocated control-flow
	// instruction ending a copy sequence (shared by the normal region walk
	// and the erroneous-entry chain).
	terminalExit := func(last regionItem, c *control) error {
		switch {
		case c.conditional:
			// Branch: two exits with independently scavenged registers. The
			// fallthrough leg may shift its exit position along the
			// fallthrough path (merging the intervening run, §4.2); the
			// taken leg needs a register dead at the taken target.
			fallthrough_ := last.addr + uint64(last.inst.Len)
			ftReg, ftResume, ftExtra, ftRes := chooseExit(env, last.addr, fallthrough_)
			agg.deadRegFailTraditional = agg.deadRegFailTraditional || ftRes.deadRegFailTraditional
			takenReg, takenOK := env.la.DeadBefore(c.taken)

			brIdx := len(bb.b.insts)
			br := last.inst
			br.Len = 4
			bb.emit(br) // taken displacement patched below

			// Fallthrough leg.
			if ftRes.deadRegFailShifted {
				agg.deadRegFailShifted = true
				agg.trapExits++
				bb.exitTrap(fallthrough_)
			} else {
				for _, x := range ftExtra {
					bb.relocate(x.inst, x.addr)
				}
				agg.exitShifted += ftRes.exitShifted
				bb.exitJump(ftResume, ftReg)
			}
			// Taken leg.
			takenIdx := len(bb.b.insts)
			if takenOK {
				bb.exitJump(c.taken, takenReg)
			} else {
				agg.deadRegFailShifted = true
				agg.trapExits++
				bb.exitTrap(c.taken)
			}
			bb.b.insts[brIdx].Imm = int64(takenIdx-brIdx) * 4
			bb.b.normalResume = fallthrough_
			return nil
		case c.call:
			// relocate() already set ra to the original return address; jump
			// to the callee through a register dead before the call.
			reg, ok := env.la.DeadBefore(last.addr)
			if !ok {
				agg.trapExits++
				bb.exitTrap(c.taken)
			} else {
				bb.exitJump(c.taken, reg)
			}
			bb.b.normalResume = 0 // control left the block
			return nil
		default:
			// Unconditional direct jump.
			reg, ok := env.la.DeadAfter(last.addr)
			if !ok {
				// The jump target context decides liveness; conservative trap.
				agg.deadRegFailTraditional = true
				agg.deadRegFailShifted = true
				agg.trapExits++
				bb.exitTrap(c.taken)
			} else {
				bb.exitJump(c.taken, reg)
			}
			bb.b.normalResume = 0
			return nil
		}
	}

	// emitErroneousChain appends the upgrade site's erroneous-entry chain
	// (Fig. 6b): verbatim relocated copies of every overwritten instruction,
	// so a mid-space entry (P1/P2) re-executes the original semantics and
	// exits at the first intact address. Overwritten extension instructions
	// cannot be copied verbatim (the block must run on the target core);
	// they are translated instruction-by-instruction.
	emitErroneousChain := func() error {
		overwritten := overwrittenItems(site)
		if len(overwritten) == 0 {
			return nil
		}
		// The chain's exits must not disturb the block's recorded normal
		// resume point (the §4.3 migration probe).
		savedResume := bb.b.normalResume
		defer func() { bb.b.normalResume = savedResume }()
		for i, it := range overwritten {
			bb.key(it.addr)
			if !emptyPatch && it.inst.IsVector() {
				seq, err := translate.Downgrade(it.inst, it.sew, ctx)
				if err != nil {
					return err
				}
				for _, in := range seq {
					bb.emit(in)
				}
				continue
			}
			c := bb.relocate(it.inst, it.addr)
			if c == nil {
				continue
			}
			if i != len(overwritten)-1 {
				return fmt.Errorf("chbp: control flow inside trampoline space at %#x", it.addr)
			}
			// Trampoline space ending in control flow (a branch completing
			// the 8 bytes): exit through its legs like the normal walk.
			return terminalExit(it, c)
		}
		// Resume at the first non-overwritten original instruction; the
		// exit register must be dead at that point.
		lastOv := overwritten[len(overwritten)-1]
		reg, newResume, extra, res := chooseExit(env, lastOv.addr, site.spaceEnd)
		agg.deadRegFailTraditional = agg.deadRegFailTraditional || res.deadRegFailTraditional
		agg.deadRegFailShifted = agg.deadRegFailShifted || res.deadRegFailShifted
		agg.exitShifted += res.exitShifted
		for _, it := range extra {
			bb.relocate(it.inst, it.addr)
		}
		if res.deadRegFailShifted {
			agg.trapExits++
			bb.exitTrap(site.spaceEnd)
		} else {
			bb.exitJump(newResume, reg)
		}
		return nil
	}

	// finish seals the block, appending the erroneous-entry chain for
	// upgrade sites (their normal path holds the idiom replacement, which a
	// mid-space entry must never land in).
	finish := func() (*buildResult, error) {
		if site.upgrade != nil {
			if err := emitErroneousChain(); err != nil {
				return nil, err
			}
		}
		site.block = bb.b
		return agg, nil
	}

	// Walk the region in original order, translating sources and relocating
	// everything else (Fig. 6a). Overwritten instructions get fault-table
	// keys pointing at their copies, whose continuation in the block matches
	// the original program order. For an upgrade site (Fig. 6b) the idiom
	// instructions collapse into their translated replacement; any other
	// region instructions — leading ones claimed by a general-register pair,
	// trailing ones when the idiom is shorter than the 8-byte trampoline (a
	// compressed slli+add pair, say) — are still part of the normal path and
	// are copied in order around the replacement.
	var idiomStart, idiomLast uint64
	if site.upgrade != nil {
		idiomStart = site.upgrade.Addrs[0]
		idiomLast = site.upgrade.Addrs[len(site.upgrade.Addrs)-1]
	}
	for i, it := range site.region {
		if site.upgrade != nil && it.addr >= idiomStart && it.addr <= idiomLast {
			// Mid-idiom entries redirect into the erroneous chain, never the
			// replacement, so only the idiom head records a position.
			if it.addr == idiomStart {
				bb.b.pos[it.addr] = len(bb.b.insts)
				for _, in := range site.upgrade.Replacement {
					bb.emit(in)
				}
			}
			continue
		}
		bb.b.pos[it.addr] = len(bb.b.insts)
		if it.addr > site.start && it.addr < site.spaceEnd {
			bb.key(it.addr)
		}
		if it.isSource {
			if err := translateSource(it); err != nil {
				return nil, err
			}
			continue
		}
		c := bb.relocate(it.inst, it.addr)
		if c == nil {
			continue
		}
		if i != len(site.region)-1 {
			return nil, fmt.Errorf("chbp: control flow in the middle of a region at %#x", it.addr)
		}
		// The region ends in relocated control flow.
		last := it
		// A back edge whose target the region itself covers becomes an
		// intra-block branch: the loop spins inside the target block with
		// no per-iteration trampoline crossing (the full benefit of the
		// §4.2 batching optimization).
		if tgtIdx, ok := bb.b.pos[c.taken]; ok && c.conditional {
			brIdx := len(bb.b.insts)
			delta := int64(tgtIdx-brIdx) * 4
			if delta >= -4000 && delta < 4000 {
				br := last.inst
				br.Len = 4
				br.Imm = delta
				bb.emit(br)
				if err := endExit(last.addr, site.regionEnd); err != nil {
					return nil, err
				}
				return finish()
			}
		}
		if err := terminalExit(last, c); err != nil {
			return nil, err
		}
		return finish()
	}

	last := site.region[len(site.region)-1]
	if err := endExit(last.addr, site.regionEnd); err != nil {
		return nil, err
	}
	return finish()
}

// overwrittenItems returns the region items whose original bytes the
// trampoline overwrote, excluding the site start itself.
func overwrittenItems(site *patchSite) []regionItem {
	var out []regionItem
	for _, it := range site.region {
		if it.addr > site.start && it.addr < site.spaceEnd {
			out = append(out, it)
		}
	}
	return out
}
