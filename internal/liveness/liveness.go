// Package liveness implements backward integer-register liveness on a
// binary CFG, in the style of binary-rewriting liveness analyses (Meng &
// Liu). CHBP uses it to find dead registers for exit trampolines (§4.2).
//
// The analysis is intentionally conservative, exactly like the paper says
// binary-level analyses must be: at unresolved indirect jumps and at
// function returns every register is assumed live, and calls are modeled
// with ABI argument/return conventions only. The conservatism is what makes
// the paper's "traditional analysis fails to find a dead register" fallback
// path real.
package liveness

import (
	"github.com/eurosys26p57/chimera/internal/cfg"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// RegSet is a bitmask over the 32 integer registers.
type RegSet uint32

// Has reports membership.
func (s RegSet) Has(r riscv.Reg) bool { return s&(1<<r) != 0 }

// Add returns s with r included.
func (s RegSet) Add(r riscv.Reg) RegSet { return s | 1<<r }

// Remove returns s without r.
func (s RegSet) Remove(r riscv.Reg) RegSet { return s &^ (1 << r) }

// AllRegs has every integer register live (the conservative boundary
// value). x0 is immaterial either way.
const AllRegs RegSet = 0xFFFFFFFF

// argRegs are a0-a7; retRegs a0-a1; scratchForCall is what a call is
// assumed to use/define under the psABI.
const (
	argRegs RegSet = 0x3FC00 // a0..a7 = x10..x17
	retRegs RegSet = 0x00C00 // a0, a1
)

// UseDef returns the integer registers an instruction reads and writes.
// Floating-point and vector register files are tracked separately by the
// translator and are irrelevant for exit-register selection.
func UseDef(in riscv.Inst) (use, def RegSet) {
	u := func(rs ...riscv.Reg) {
		for _, r := range rs {
			if r != riscv.Zero {
				use = use.Add(r)
			}
		}
	}
	d := func(r riscv.Reg) {
		if r != riscv.Zero {
			def = def.Add(r)
		}
	}
	switch in.Op {
	case riscv.LUI, riscv.AUIPC:
		d(in.Rd)
	case riscv.JAL:
		d(in.Rd)
	case riscv.JALR:
		u(in.Rs1)
		d(in.Rd)
	case riscv.BEQ, riscv.BNE, riscv.BLT, riscv.BGE, riscv.BLTU, riscv.BGEU:
		u(in.Rs1, in.Rs2)
	case riscv.LB, riscv.LH, riscv.LW, riscv.LD, riscv.LBU, riscv.LHU, riscv.LWU:
		u(in.Rs1)
		d(in.Rd)
	case riscv.SB, riscv.SH, riscv.SW, riscv.SD:
		u(in.Rs1, in.Rs2)
	case riscv.ADDI, riscv.SLTI, riscv.SLTIU, riscv.XORI, riscv.ORI, riscv.ANDI,
		riscv.SLLI, riscv.SRLI, riscv.SRAI,
		riscv.ADDIW, riscv.SLLIW, riscv.SRLIW, riscv.SRAIW:
		u(in.Rs1)
		d(in.Rd)
	case riscv.FENCE:
	case riscv.ECALL:
		// Syscall: conservatively uses all argument registers, clobbers the
		// return registers.
		use |= argRegs
		def |= retRegs
	case riscv.EBREAK:
	case riscv.FLW, riscv.FLD:
		u(in.Rs1)
	case riscv.FSW, riscv.FSD:
		u(in.Rs1)
	case riscv.FCVTSL, riscv.FCVTDL, riscv.FMVDX, riscv.FMVWX:
		u(in.Rs1)
	case riscv.FCVTLD, riscv.FMVXD, riscv.FMVXW, riscv.FEQD, riscv.FLTD, riscv.FLED:
		// These read f registers only and write an x register.
		d(in.Rd)
	case riscv.FADDS, riscv.FSUBS, riscv.FMULS, riscv.FDIVS, riscv.FMADDS,
		riscv.FADDD, riscv.FSUBD, riscv.FMULD, riscv.FDIVD, riscv.FMADDD,
		riscv.FSGNJS, riscv.FSGNJD:
		// pure fp
	case riscv.VSETVLI:
		u(in.Rs1)
		d(in.Rd)
	case riscv.VLE32V, riscv.VLE64V, riscv.VSE32V, riscv.VSE64V:
		u(in.Rs1)
	case riscv.VADDVX, riscv.VMVVX:
		u(in.Rs1)
	case riscv.VFMACCVF, riscv.VFMVVF, riscv.VFMVFS, riscv.VMVVI,
		riscv.VADDVV, riscv.VMULVV, riscv.VFADDVV, riscv.VFMULVV,
		riscv.VFMACCVV, riscv.VFREDUSUMVS:
		// pure vector/fp
	default:
		// Integer R-type (incl. M and Zba/Zbb).
		u(in.Rs1, in.Rs2)
		d(in.Rd)
	}
	// FEQD-group reads two f regs but writes an x reg; fix the fp-compare
	// use handled above. (FCVTLD/FMVX* read f regs only.)
	return use, def
}

// Analysis holds per-block live-out sets.
type Analysis struct {
	g *cfg.Graph
	// liveOut maps block start to the registers live at block exit.
	liveOut map[uint64]RegSet
}

// Analyze runs the backward dataflow to a fixpoint.
func Analyze(g *cfg.Graph) *Analysis {
	a := &Analysis{g: g, liveOut: make(map[uint64]RegSet, len(g.Blocks))}

	// Initialize boundary blocks: anything with incomplete successors is
	// fully live, except canonical returns, which follow the psABI: the
	// caller can only observe return and callee-saved registers.
	for start, b := range g.Blocks {
		if b.HasIndirect && !b.IsCallSite {
			a.liveOut[start] = boundaryLive(b)
		}
	}

	// transfer computes live-in of a block from its live-out.
	transfer := func(b *cfg.Block, out RegSet) RegSet {
		live := out
		for i := b.Index + len(b.Addrs) - 1; i >= b.Index; i-- {
			in := g.Dis.Insts[i]
			use, def := UseDef(in)
			if isCall(in) {
				// A call conservatively uses its argument registers and the
				// callee-saved file (the callee may observe them), defines
				// return registers and ra.
				use = argRegs | calleeSaved
				def = retRegs.Add(riscv.RA)
			}
			live = live&^def | use
		}
		return live
	}

	changed := true
	for changed {
		changed = false
		// Iterate blocks in reverse address order for faster convergence of
		// the backward problem.
		for i := len(g.Order) - 1; i >= 0; i-- {
			start := g.Order[i]
			b := g.Blocks[start]
			out := a.liveOut[start]
			if b.HasIndirect && !b.IsCallSite {
				out = boundaryLive(b)
			}
			for _, s := range b.Succs {
				sb := g.Blocks[s]
				out |= transfer(sb, a.outOf(sb))
			}
			if len(b.Succs) == 0 && !b.HasIndirect {
				// Path ends in unrecognized code: conservative.
				out = AllRegs
			}
			if out != a.liveOut[start] {
				a.liveOut[start] = out
				changed = true
			}
		}
	}
	return a
}

// calleeSaved is s0-s11 plus sp/gp/tp.
const calleeSaved RegSet = 1<<riscv.SP | 1<<riscv.GP | 1<<riscv.TP |
	1<<riscv.S0 | 1<<riscv.S1 |
	1<<riscv.S2 | 1<<riscv.S3 | 1<<riscv.S4 | 1<<riscv.S5 |
	1<<riscv.S6 | 1<<riscv.S7 | 1<<riscv.S8 | 1<<riscv.S9 |
	1<<riscv.S10 | 1<<riscv.S11

func isCall(in riscv.Inst) bool {
	return (in.Op == riscv.JAL || in.Op == riscv.JALR) && in.Rd == riscv.RA
}

// boundaryLive is the live-out assumption for a block whose successors are
// unknown: canonical returns use the psABI contract, anything else (computed
// gotos, tail calls, jump tables) is fully live.
func boundaryLive(b *cfg.Block) RegSet {
	if b.IsRet {
		return retRegs | calleeSaved | 1<<riscv.RA
	}
	return AllRegs
}

func (a *Analysis) outOf(b *cfg.Block) RegSet {
	if b.HasIndirect && !b.IsCallSite {
		return boundaryLive(b)
	}
	return a.liveOut[b.Start]
}

// LiveAfter returns the set of registers live immediately after the
// instruction at addr (i.e. at the point a jump-back trampoline placed
// there would execute).
func (a *Analysis) LiveAfter(addr uint64) RegSet {
	i, ok := a.g.Dis.Index(addr)
	if !ok {
		return AllRegs
	}
	return a.liveAfter(i)
}

// liveAfter is LiveAfter for the instruction at index i of the
// disassembly.
func (a *Analysis) liveAfter(i int) RegSet {
	b := a.g.Blocks[a.g.BlockOf[i]]
	live := a.outOf(b)
	for j := b.Index + len(b.Addrs) - 1; j > i; j-- {
		in := a.g.Dis.Insts[j]
		use, def := UseDef(in)
		if isCall(in) {
			use = argRegs | calleeSaved
			def = retRegs.Add(riscv.RA)
		}
		live = live&^def | use
	}
	return live
}

// LiveBefore returns the registers live immediately before the instruction
// at addr executes.
func (a *Analysis) LiveBefore(addr uint64) RegSet {
	i, ok := a.g.Dis.Index(addr)
	if !ok {
		return AllRegs
	}
	in := a.g.Dis.Insts[i]
	use, def := UseDef(in)
	if isCall(in) {
		use = argRegs | calleeSaved
		def = retRegs.Add(riscv.RA)
	}
	return a.liveAfter(i)&^def | use
}

// DeadBefore returns a scavengeable register that is dead immediately
// before the instruction at addr, or false.
func (a *Analysis) DeadBefore(addr uint64) (riscv.Reg, bool) {
	live := a.LiveBefore(addr)
	for _, r := range candidateRegs {
		if !live.Has(r) {
			return r, true
		}
	}
	return 0, false
}

// DeadAfter returns a usable dead register at the point after addr,
// preferring temporaries, or false if every candidate is live. sp/gp/tp and
// x0 are never candidates.
func (a *Analysis) DeadAfter(addr uint64) (riscv.Reg, bool) {
	live := a.LiveAfter(addr)
	for _, r := range candidateRegs {
		if !live.Has(r) {
			return r, true
		}
	}
	return 0, false
}

// candidateRegs orders preference for scavenged registers: temporaries
// first, then argument and saved registers.
var candidateRegs = []riscv.Reg{
	riscv.T0, riscv.T1, riscv.T2, riscv.T3, riscv.T4, riscv.T5, riscv.T6,
	riscv.A0, riscv.A1, riscv.A2, riscv.A3, riscv.A4, riscv.A5, riscv.A6, riscv.A7,
	riscv.S1, riscv.S2, riscv.S3, riscv.S4, riscv.S5, riscv.S6, riscv.S7,
	riscv.S8, riscv.S9, riscv.S10, riscv.S11, riscv.RA,
}
