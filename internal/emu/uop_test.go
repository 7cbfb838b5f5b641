package emu

import (
	"math"
	"testing"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// The µop conformance table runs each case on the three execution tiers
// (stepping, blocks alone, blocks with traces at threshold 2) and compares
// the block and trace tiers with stepping bit for bit: PC, Instret,
// Cycles, LastInst, the X, F and V files, VL and vtype, the stop and its
// fault, and the data pages. A case is a loop body the harness runs a0
// times before an ebreak, so later iterations execute inside a trace.

// Data layout: two read-write pages, one read-only page, then an unmapped
// page.
const (
	confData = 0x0010_0000
	confRO   = confData + 2*obj.PageSize
	confHole = confData + 3*obj.PageSize
)

type conformCase struct {
	name  string
	body  []riscv.Inst
	iters uint64
	regs  map[riscv.Reg]uint64 // initial X registers besides a0
	// interp is how many instructions the block and trace tiers hand to
	// exec: the final ebreak or the faulting instruction, plus every
	// declined vector µop.
	interp uint64
	check  func(t *testing.T, tier string, c *CPU) // optional: values from the ISA manual
}

// vsetvl, vop and addi are shorthand for the table.
func vsetvl(rd, rs1 riscv.Reg, sew riscv.SEW) riscv.Inst {
	return riscv.Inst{Op: riscv.VSETVLI, Rd: rd, Rs1: rs1, Imm: riscv.VType(sew)}
}

func vop(op riscv.Op, vd, rs1, vs2 riscv.Reg) riscv.Inst {
	return riscv.Inst{Op: op, Rd: vd, Rs1: rs1, Rs2: vs2}
}

func addi(rd riscv.Reg, imm int64) riscv.Inst {
	return riscv.Inst{Op: riscv.ADDI, Rd: rd, Rs1: rd, Imm: imm}
}

// fpBody is the RVV dot/axpy shape: loads, both vfmacc forms, add, mul,
// a reduction and moves, then a store, with the pointers advancing by one
// register's bytes.
func fpBody(sew riscv.SEW) []riscv.Inst {
	vle, vse := riscv.VLE64V, riscv.VSE64V
	if sew == riscv.E32 {
		vle, vse = riscv.VLE32V, riscv.VSE32V
	}
	return []riscv.Inst{
		vsetvl(riscv.T0, riscv.A2, sew),
		vop(vle, 1, riscv.A1, 0),
		vop(vle, 2, riscv.A3, 0),
		vop(riscv.VFMACCVV, 2, 1, 1),
		vop(riscv.VFMACCVF, 2, 1, 1),
		vop(riscv.VFADDVV, 3, 1, 2),
		vop(riscv.VFMULVV, 4, 3, 1),
		vop(riscv.VFREDUSUMVS, 5, 5, 4),
		vop(riscv.VFMVFS, 2, 0, 5),
		vop(riscv.VFMVVF, 6, 2, 0),
		vop(vse, 2, riscv.A3, 0),
		addi(riscv.A1, riscv.VLenBytes),
		addi(riscv.A3, riscv.VLenBytes),
	}
}

// intBody exercises the integer ops and moves.
func intBody(sew riscv.SEW) []riscv.Inst {
	vse := riscv.VSE64V
	if sew == riscv.E32 {
		vse = riscv.VSE32V
	}
	return []riscv.Inst{
		vsetvl(riscv.T0, riscv.A2, sew),
		{Op: riscv.VMVVI, Rd: 1, Imm: -3},
		vop(riscv.VMVVX, 2, riscv.A4, 0),
		vop(riscv.VADDVV, 3, 1, 2),
		vop(riscv.VADDVX, 3, riscv.A4, 3),
		vop(riscv.VMULVV, 4, 3, 4),
		vop(vse, 4, riscv.A3, 0),
		addi(riscv.A3, riscv.VLenBytes),
		addi(riscv.A4, 7),
	}
}

// divBody runs every divide and remainder op on a1 and a2.
func divBody() []riscv.Inst {
	var body []riscv.Inst
	for i, op := range divOps {
		body = append(body, riscv.Inst{Op: op, Rd: divRds[i], Rs1: riscv.A1, Rs2: riscv.A2})
	}
	return body
}

var (
	divOps = []riscv.Op{riscv.DIV, riscv.DIVU, riscv.REM, riscv.REMU,
		riscv.DIVW, riscv.DIVUW, riscv.REMW, riscv.REMUW}
	divRds = []riscv.Reg{riscv.T0, riscv.T1, riscv.T2, riscv.T3, 29, 30, riscv.T6, riscv.S2}
)

// divCase checks the eight results against want, in divOps order.
func divCase(name string, a, b uint64, want [8]uint64) conformCase {
	return conformCase{
		name: name, body: divBody(), iters: 6, interp: 1,
		regs: map[riscv.Reg]uint64{riscv.A1: a, riscv.A2: b},
		check: func(t *testing.T, tier string, c *CPU) {
			for i, rd := range divRds {
				if c.X[rd] != want[i] {
					t.Errorf("%s/%s: %v = %#x, want %#x", name, tier, divOps[i], c.X[rd], want[i])
				}
			}
		},
	}
}

// keepVL sets VL to min(avl, 8) at SEW 32, then runs vsetvli x0, x0 to
// SEW 64 and the fp body at the kept VL, which must be want.
func keepVL(name string, avl, want uint64) conformCase {
	return conformCase{
		name: name, iters: 6, interp: 1,
		regs: map[riscv.Reg]uint64{riscv.A2: avl, riscv.A1: confData, riscv.A3: confData + 0x800},
		body: append([]riscv.Inst{vsetvl(riscv.T0, riscv.A2, riscv.E32), vsetvl(riscv.Zero, riscv.Zero, riscv.E64)},
			fpBody(riscv.E64)[1:]...),
		check: func(t *testing.T, tier string, c *CPU) {
			if c.VL != want || riscv.SEWOf(c.VT) != riscv.E64 {
				t.Errorf("%s/%s: vl %d sew %v, want %d at e64", name, tier, c.VL, riscv.SEWOf(c.VT), want)
			}
		},
	}
}

func conformCases() []conformCase {
	const ones = ^uint64(0)
	neg := func(v int64) uint64 { return uint64(v) }
	ptrs := map[riscv.Reg]uint64{riscv.A1: confData, riscv.A3: confData + 0x800, riscv.A4: 5}
	with := func(avl uint64) map[riscv.Reg]uint64 {
		m := map[riscv.Reg]uint64{riscv.A2: avl}
		for r, v := range ptrs {
			m[r] = v
		}
		return m
	}
	const iters = 6
	var cases []conformCase
	for _, sew := range []riscv.SEW{riscv.E64, riscv.E32} {
		vlmax := uint64(riscv.VLenBytes / sew.Bytes())
		for _, vl := range []struct {
			name string
			avl  uint64
		}{{"vl=0", 0}, {"vl=1", 1}, {"vl=partial", vlmax - 1}, {"vl=vlmax", vlmax}, {"avl>vlmax", 100}} {
			prefix := "e64/"
			if sew == riscv.E32 {
				prefix = "e32/"
			}
			// At VL 0 each load and store moves no bytes and is declined.
			fp, in := uint64(1), uint64(1)
			if vl.avl == 0 {
				fp, in = 1+3*iters, 1+iters
			}
			cases = append(cases,
				conformCase{name: prefix + "fp/" + vl.name, body: fpBody(sew), iters: iters, regs: with(vl.avl), interp: fp},
				conformCase{name: prefix + "int/" + vl.name, body: intBody(sew), iters: iters, regs: with(vl.avl), interp: in})
		}
	}
	cases = append(cases,
		conformCase{
			name: "vsetvli/rs1=x0", iters: iters, regs: with(3), interp: 1,
			body: append([]riscv.Inst{vsetvl(riscv.T1, riscv.Zero, riscv.E32)}, intBody(riscv.E32)[1:]...),
			check: func(t *testing.T, tier string, c *CPU) {
				if c.VL != 8 || c.X[riscv.T1] != 8 {
					t.Errorf("vsetvli/rs1=x0/%s: vl %d, t1 %d, want VLMAX 8", tier, c.VL, c.X[riscv.T1])
				}
			},
		},
		conformCase{
			name: "vsetvli/rd=x0", iters: iters, regs: with(3), interp: 1,
			body: append([]riscv.Inst{vsetvl(riscv.Zero, riscv.A2, riscv.E64)}, fpBody(riscv.E64)[1:]...),
			check: func(t *testing.T, tier string, c *CPU) {
				if c.VL != 3 || c.X[riscv.Zero] != 0 {
					t.Errorf("vsetvli/rd=x0/%s: vl %d, x0 %d, want 3 and 0", tier, c.VL, c.X[riscv.Zero])
				}
			},
		},
		// vsetvli x0, x0 changes vtype and keeps VL (RVV 1.0); a VLMAX the
		// new SEW shrinks below it (a reserved use) clamps VL.
		keepVL("vsetvli/x0-x0", 3, 3),
		keepVL("vsetvli/x0-x0-clamp", 7, 4),
		// At VL 0 a reduction leaves vd unchanged: v7 keeps its zeros
		// although vs1[0] holds 1.5.
		conformCase{
			name: "vfredusum/vl=0", iters: iters, interp: 1,
			regs: map[riscv.Reg]uint64{riscv.A2: 3},
			body: []riscv.Inst{
				vsetvl(riscv.T0, riscv.A2, riscv.E64),
				vop(riscv.VFMVVF, 6, 1, 0),
				vsetvl(riscv.T1, riscv.A5, riscv.E64),
				vop(riscv.VFREDUSUMVS, 7, 6, 6),
			},
			check: func(t *testing.T, tier string, c *CPU) {
				if c.VL != 0 || c.V[7] != ([riscv.VLenBytes]byte{}) {
					t.Errorf("vfredusum/vl=0/%s: vl %d, v7 %x, want 0 and zeros", tier, c.VL, c.V[7])
				}
			},
		},
		// SEW changes between the µops of one trace: the e64 add and the
		// e32 add read vtype as each executes.
		conformCase{
			name: "vsetvli/sew-change", iters: iters, regs: with(100), interp: 1,
			body: []riscv.Inst{
				vsetvl(riscv.T0, riscv.A2, riscv.E64),
				vop(riscv.VLE64V, 1, riscv.A1, 0),
				vop(riscv.VADDVV, 2, 1, 2),
				vsetvl(riscv.T1, riscv.A2, riscv.E32),
				vop(riscv.VADDVV, 3, 1, 3),
				vop(riscv.VFADDVV, 4, 1, 4),
				vop(riscv.VSE32V, 3, riscv.A3, 0),
				addi(riscv.A1, riscv.VLenBytes),
				addi(riscv.A3, riscv.VLenBytes),
			},
		},
		// A load that crosses into the next mapped page is declined and
		// exec completes it: the third iteration straddles.
		conformCase{
			name: "vle/cross-page", iters: iters, interp: 2,
			regs: map[riscv.Reg]uint64{riscv.A2: 100, riscv.A1: confData + obj.PageSize - 80, riscv.A3: confData},
			body: []riscv.Inst{
				vsetvl(riscv.T0, riscv.A2, riscv.E64),
				vop(riscv.VLE64V, 1, riscv.A1, 0),
				vop(riscv.VSE64V, 1, riscv.A3, 0),
				addi(riscv.A1, riscv.VLenBytes),
				addi(riscv.A3, riscv.VLenBytes),
			},
		},
		// The fifth iteration's load lands on the unmapped page.
		conformCase{
			name: "vle/unmapped", iters: iters, interp: 1,
			regs: map[riscv.Reg]uint64{riscv.A2: 100, riscv.A1: confHole - 4*riscv.VLenBytes},
			body: []riscv.Inst{vsetvl(riscv.T0, riscv.A2, riscv.E64), vop(riscv.VLE64V, 1, riscv.A1, 0), addi(riscv.A1, riscv.VLenBytes)},
		},
		// The fifth iteration's load starts in the read-only page and
		// runs into the unmapped one: the fault names the hole's address.
		conformCase{
			name: "vle/cross-into-unmapped", iters: iters, interp: 1,
			regs: map[riscv.Reg]uint64{riscv.A2: 100, riscv.A1: confHole - 4*riscv.VLenBytes - 16},
			body: []riscv.Inst{vsetvl(riscv.T0, riscv.A2, riscv.E64), vop(riscv.VLE64V, 1, riscv.A1, 0), addi(riscv.A1, riscv.VLenBytes)},
		},
		conformCase{
			name: "vse/read-only", iters: iters, interp: 1,
			regs: map[riscv.Reg]uint64{riscv.A2: 100, riscv.A3: confRO - 4*riscv.VLenBytes},
			body: []riscv.Inst{vsetvl(riscv.T0, riscv.A2, riscv.E32), vop(riscv.VSE32V, 1, riscv.A3, 0), addi(riscv.A3, riscv.VLenBytes)},
		},
		// The straddling store writes its first half before it faults, on
		// every tier alike.
		conformCase{
			name: "vse/cross-into-read-only", iters: iters, interp: 1,
			regs: map[riscv.Reg]uint64{riscv.A2: 100, riscv.A3: confRO - 4*riscv.VLenBytes - 16},
			body: []riscv.Inst{
				vsetvl(riscv.T0, riscv.A2, riscv.E64),
				{Op: riscv.VMVVI, Rd: 1, Imm: -1},
				vop(riscv.VSE64V, 1, riscv.A3, 0),
				addi(riscv.A3, riscv.VLenBytes),
			},
		},
		// 64-bit elements at SEW 32 would fill a register group, and SEW 8
		// is not implemented: both are illegal on every tier.
		conformCase{
			name: "vle64/at-e32", iters: iters, interp: 1,
			regs: map[riscv.Reg]uint64{riscv.A2: 100, riscv.A1: confData},
			body: []riscv.Inst{vsetvl(riscv.T0, riscv.A2, riscv.E32), vop(riscv.VLE64V, 1, riscv.A1, 0)},
		},
		conformCase{
			name: "vadd/at-e8", iters: iters, interp: 1,
			regs: map[riscv.Reg]uint64{riscv.A2: 100},
			body: []riscv.Inst{vsetvl(riscv.T0, riscv.A2, riscv.E8), vop(riscv.VADDVV, 1, 2, 3)},
		},
		divCase("div/by-zero", 7, 0, [8]uint64{ones, ones, 7, 7, ones, ones, 7, 7}),
		divCase("div/minint64-by-minus1", 1<<63, ones,
			[8]uint64{1 << 63, 0, 0, 1 << 63, 0, 0, 0, 0}),
		divCase("div/minint32-by-minus1", neg(math.MinInt32), ones,
			[8]uint64{1 << 31, 0, 0, neg(math.MinInt32), neg(math.MinInt32), 0, 0, neg(math.MinInt32)}),
		divCase("div/negative", neg(-7), 2,
			[8]uint64{neg(-3), 0x7FFFFFFF_FFFFFFFC, ones, 1, neg(-3), 0x7FFFFFFC, ones, 1}),
		divCase("div/w-by-zero-low-half", 0x12345678_00000005, 0xABCD0000_00000000,
			[8]uint64{0, 0, 0x12345678_00000005, 0x12345678_00000005, ones, ones, 5, 5}),
	)
	return cases
}

var conformTiers = []struct {
	name      string
	interp    bool
	threshold uint32
}{{"step", true, 0}, {"blocks", false, 0}, {"traces", false, 2}}

// runConform runs one case on one tier and returns the hart and its stop.
func runConform(t *testing.T, tc conformCase, interp bool, threshold uint32) (*CPU, Stop) {
	t.Helper()
	body := append(append([]riscv.Inst(nil), tc.body...),
		addi(riscv.A0, -1),
		riscv.Inst{Op: riscv.BNE, Rs1: riscv.A0, Rs2: riscv.Zero, Imm: -4 * int64(len(tc.body)+1)},
		riscv.Inst{Op: riscv.EBREAK})
	text := enc(t, body...)
	mem := NewMemory()
	mem.Map(obj.TextBase, uint64(len(text)), obj.PermRX)
	mem.write(obj.TextBase, text)
	mem.Map(confData, 2*obj.PageSize, obj.PermRW)
	mem.Map(confRO, obj.PageSize, obj.PermR)
	var data [3 * obj.PageSize]byte
	for i := 0; i < len(data); i += 8 {
		v := f64b(float64(i%97)*0.3125 - 7)
		for k := 0; k < 8; k++ {
			data[i+k] = byte(v >> (8 * k))
		}
	}
	mem.write(confData, data[:])
	cpu := NewCPU(mem, riscv.RV64GCV)
	cpu.Interp, cpu.TraceThreshold = interp, threshold
	cpu.PC = obj.TextBase
	cpu.X[riscv.A0] = tc.iters
	for r, v := range tc.regs {
		cpu.X[r] = v
	}
	cpu.F[1] = f64b(1.5)
	cpu.F[2] = f64b(-0.75)
	return cpu, cpu.Run(100_000)
}

func TestUopConformance(t *testing.T) {
	for _, tc := range conformCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref, refStop := runConform(t, tc, true, 0)
			var refData [3 * obj.PageSize]byte
			ref.Mem.Peek(confData, refData[:])
			if refStop.Kind == StopLimit {
				t.Fatalf("step: did not finish")
			}
			for _, tier := range conformTiers {
				c, stop := runConform(t, tc, tier.interp, tier.threshold)
				if tc.check != nil {
					tc.check(t, tier.name, c)
				}
				if tier.interp {
					continue
				}
				if stop.Kind != refStop.Kind || stop.Fault.Kind != refStop.Fault.Kind ||
					stop.Fault.PC != refStop.Fault.PC || stop.Fault.Addr != refStop.Fault.Addr ||
					(stop.Fault.Err == nil) != (refStop.Fault.Err == nil) ||
					stop.Fault.Err != nil && stop.Fault.Err.Error() != refStop.Fault.Err.Error() {
					t.Errorf("%s: stop %+v, step %+v", tier.name, stop, refStop)
				}
				if c.PC != ref.PC || c.Instret != ref.Instret || c.Cycles != ref.Cycles || c.LastInst != ref.LastInst {
					t.Errorf("%s: pc %#x instret %d cycles %d last %v, step %#x %d %d %v", tier.name,
						c.PC, c.Instret, c.Cycles, c.LastInst, ref.PC, ref.Instret, ref.Cycles, ref.LastInst)
				}
				if c.X != ref.X || c.F != ref.F || c.V != ref.V || c.VL != ref.VL || c.VT != ref.VT {
					t.Errorf("%s: register state differs from stepping", tier.name)
				}
				var got [3 * obj.PageSize]byte
				c.Mem.Peek(confData, got[:])
				if got != refData {
					t.Errorf("%s: data pages differ from stepping", tier.name)
				}
				if c.Blocks.Interpreted != tc.interp {
					t.Errorf("%s: %d instructions interpreted, want %d", tier.name, c.Blocks.Interpreted, tc.interp)
				}
				// A trace runs from the third iteration on.
				if tier.threshold != 0 && ref.Instret > 3*uint64(len(tc.body)+2) && c.Blocks.TraceRetired == 0 {
					t.Errorf("%s: no instruction retired in a trace", tier.name)
				}
			}
		})
	}
}

// TestFMARoundsOnce is the fused multiply-add probe: with a = b = 1+2^-30
// and c = -(1+2^-29), a*b+c is exactly 2^-60, which only a single
// rounding keeps (rounding a*b first gives 0). fmadd.d and vfmacc.vv/.vf
// at SEW 64 must give it on every tier.
func TestFMARoundsOnce(t *testing.T) {
	a, c := 1+0x1p-30, -(1 + 0x1p-29)
	tc := conformCase{
		name: "fma", iters: 6,
		regs: map[riscv.Reg]uint64{riscv.A2: 100, riscv.A4: f64b(a), riscv.A5: f64b(c)},
		body: []riscv.Inst{
			{Op: riscv.FMVDX, Rd: 10, Rs1: riscv.A4},
			{Op: riscv.FMVDX, Rd: 11, Rs1: riscv.A5},
			{Op: riscv.FMADDD, Rd: 12, Rs1: 10, Rs2: 10, Rs3: 11},
			vsetvl(riscv.T0, riscv.A2, riscv.E64),
			vop(riscv.VFMVVF, 1, 10, 0),
			vop(riscv.VFMVVF, 2, 11, 0),
			vop(riscv.VFMVVF, 3, 11, 0),
			vop(riscv.VFMACCVV, 2, 1, 1),
			vop(riscv.VFMACCVF, 3, 10, 1),
			vop(riscv.VFMVFS, 13, 0, 2),
			vop(riscv.VFMVFS, 14, 0, 3),
		},
	}
	for _, tier := range conformTiers {
		cpu, stop := runConform(t, tc, tier.interp, tier.threshold)
		if stop.Kind != StopBreak {
			t.Fatalf("%s: stop %+v, want ebreak", tier.name, stop)
		}
		for _, r := range []riscv.Reg{12, 13, 14} {
			if got := f64(cpu.F[r]); got != 0x1p-60 {
				t.Errorf("%s: f%d = %g, want 2^-60", tier.name, r, got)
			}
		}
		if tier.threshold != 0 && cpu.Blocks.TraceRetired == 0 {
			t.Errorf("%s: no instruction retired in a trace", tier.name)
		}
	}
}
