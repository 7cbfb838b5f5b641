package emu

import "github.com/eurosys26p57/chimera/internal/riscv"

// CostModel charges cycles per retired instruction. The constants are the
// calibration knobs documented in DESIGN.md §4: they are chosen so the
// *relative* results of the paper's experiments land in the reported bands,
// not to model any particular microarchitecture.
type CostModel struct {
	ALU        uint64 // simple integer op
	Mul        uint64
	Div        uint64
	Mem        uint64 // scalar load/store
	Branch     uint64 // not taken
	TakenExtra uint64 // extra cycles for a taken branch / any jump
	FPU        uint64 // fp add/sub/mul/cvt/mv
	FDiv       uint64
	FMA        uint64
	VSet       uint64 // vsetvli
	VMem       uint64 // vector load/store (whole register group)
	VALU       uint64 // vector integer op
	VFMA       uint64 // vector fp multiply-accumulate
	VReduce    uint64 // vector reduction
}

// CPUHz converts simulated cycles to seconds for presentation, matching the
// Banana Pi BPI-F3's 1.6GHz clock.
const CPUHz = 1.6e9

// Seconds converts cycles to seconds.
func Seconds(cycles uint64) float64 { return float64(cycles) / CPUHz }

// DefaultCost is the calibrated model used by all experiments.
var DefaultCost = CostModel{
	ALU:        1,
	Mul:        3,
	Div:        20,
	Mem:        3,
	Branch:     1,
	TakenExtra: 1,
	FPU:        4,
	FDiv:       15,
	FMA:        5,
	VSet:       1,
	VMem:       4,
	VALU:       2,
	VFMA:       3,
	VReduce:    6,
}

// Costs returns both cycle charges for inst — (not-taken, taken) — in one
// call, the shape the block/trace builders predecode into µops so dispatch
// never consults the model.
func (c *CostModel) Costs(inst riscv.Inst) (n, t uint64) {
	return c.Cost(inst, false), c.Cost(inst, true)
}

// Cost returns the cycle charge for one retired instruction; taken reports
// whether a branch/jump redirected control flow.
func (c *CostModel) Cost(inst riscv.Inst, taken bool) uint64 {
	var base uint64
	switch inst.Op {
	case riscv.MUL, riscv.MULH, riscv.MULHSU, riscv.MULHU, riscv.MULW:
		base = c.Mul
	case riscv.DIV, riscv.DIVU, riscv.REM, riscv.REMU,
		riscv.DIVW, riscv.DIVUW, riscv.REMW, riscv.REMUW:
		base = c.Div
	case riscv.LB, riscv.LH, riscv.LW, riscv.LD, riscv.LBU, riscv.LHU, riscv.LWU,
		riscv.SB, riscv.SH, riscv.SW, riscv.SD,
		riscv.FLW, riscv.FLD, riscv.FSW, riscv.FSD:
		base = c.Mem
	case riscv.BEQ, riscv.BNE, riscv.BLT, riscv.BGE, riscv.BLTU, riscv.BGEU:
		base = c.Branch
	case riscv.JAL, riscv.JALR:
		base = c.Branch
		taken = true
	case riscv.FADDS, riscv.FSUBS, riscv.FMULS, riscv.FADDD, riscv.FSUBD, riscv.FMULD,
		riscv.FSGNJS, riscv.FSGNJD, riscv.FCVTSL, riscv.FCVTDL, riscv.FCVTLD,
		riscv.FMVXD, riscv.FMVDX, riscv.FMVXW, riscv.FMVWX,
		riscv.FEQD, riscv.FLTD, riscv.FLED:
		base = c.FPU
	case riscv.FDIVS, riscv.FDIVD:
		base = c.FDiv
	case riscv.FMADDS, riscv.FMADDD:
		base = c.FMA
	case riscv.VSETVLI:
		base = c.VSet
	case riscv.VLE32V, riscv.VLE64V, riscv.VSE32V, riscv.VSE64V:
		base = c.VMem
	case riscv.VADDVV, riscv.VADDVX, riscv.VMULVV, riscv.VMVVI, riscv.VMVVX:
		base = c.VALU
	case riscv.VFADDVV, riscv.VFMULVV, riscv.VFMACCVV, riscv.VFMACCVF, riscv.VFMVVF, riscv.VFMVFS:
		base = c.VFMA
	case riscv.VFREDUSUMVS:
		base = c.VReduce
	default:
		base = c.ALU
	}
	if taken {
		base += c.TakenExtra
	}
	return base
}
