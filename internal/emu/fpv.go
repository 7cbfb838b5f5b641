package emu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/eurosys26p57/chimera/internal/riscv"
)

// The FP retire helpers mirror the integer ones in cpu.go: methods rather
// than per-call closures so the hot path never allocates.

// fcvtLD is fcvt.l.d with round-toward-zero, as the RISC-V conversion
// table gives it: in-range values truncate, NaN and positive overflow
// saturate to 2^63-1 and negative overflow to -2^63. Go's int64(d) leaves
// the out-of-range cases to the implementation.
func fcvtLD(d float64) uint64 {
	switch {
	case d != d || d >= 0x1p63:
		return math.MaxInt64
	case d < -0x1p63:
		return 1 << 63
	}
	return uint64(int64(d))
}

// fd writes a double result and retires.
func (c *CPU) fd(inst riscv.Inst, next uint64, v float64) (Stop, bool) {
	c.F[inst.Rd] = f64b(v)
	return c.retire(inst, next, false)
}

// fs writes a NaN-boxed single result and retires.
func (c *CPU) fs(inst riscv.Inst, next uint64, v float32) (Stop, bool) {
	c.F[inst.Rd] = f32b(v)
	return c.retire(inst, next, false)
}

// xv writes an integer-register result and retires.
func (c *CPU) xv(inst riscv.Inst, next uint64, v uint64) (Stop, bool) {
	c.X[inst.Rd] = v
	return c.retire(inst, next, false)
}

// execFPV implements the floating-point and vector subset. Each case
// converts only the operands it reads.
func (c *CPU) execFPV(inst riscv.Inst, next uint64) (Stop, bool) {
	rd, rs1, rs2, rs3 := inst.Rd, inst.Rs1, inst.Rs2, inst.Rs3
	f := &c.F

	switch inst.Op {
	case riscv.FADDS:
		return c.fs(inst, next, f32of(f[rs1])+f32of(f[rs2]))
	case riscv.FSUBS:
		return c.fs(inst, next, f32of(f[rs1])-f32of(f[rs2]))
	case riscv.FMULS:
		return c.fs(inst, next, f32of(f[rs1])*f32of(f[rs2]))
	case riscv.FDIVS:
		return c.fs(inst, next, f32of(f[rs1])/f32of(f[rs2]))
	case riscv.FMADDS:
		return c.fs(inst, next, f32of(f[rs1])*f32of(f[rs2])+f32of(f[rs3]))
	case riscv.FADDD:
		return c.fd(inst, next, f64(f[rs1])+f64(f[rs2]))
	case riscv.FSUBD:
		return c.fd(inst, next, f64(f[rs1])-f64(f[rs2]))
	case riscv.FMULD:
		return c.fd(inst, next, f64(f[rs1])*f64(f[rs2]))
	case riscv.FDIVD:
		return c.fd(inst, next, f64(f[rs1])/f64(f[rs2]))
	case riscv.FMADDD:
		return c.fd(inst, next, math.FMA(f64(f[rs1]), f64(f[rs2]), f64(f[rs3])))
	case riscv.FSGNJS:
		v := uint32(f[rs1])&0x7FFFFFFF | uint32(f[rs2])&0x80000000
		f[rd] = 0xFFFFFFFF_00000000 | uint64(v)
		return c.retire(inst, next, false)
	case riscv.FSGNJD:
		f[rd] = f[rs1]&0x7FFFFFFF_FFFFFFFF | f[rs2]&0x80000000_00000000
		return c.retire(inst, next, false)
	case riscv.FCVTSL:
		return c.fs(inst, next, float32(int64(c.X[rs1])))
	case riscv.FCVTDL:
		return c.fd(inst, next, float64(int64(c.X[rs1])))
	case riscv.FCVTLD:
		return c.xv(inst, next, fcvtLD(f64(f[rs1])))
	case riscv.FMVXD:
		return c.xv(inst, next, f[rs1])
	case riscv.FMVDX:
		f[rd] = c.X[rs1]
		return c.retire(inst, next, false)
	case riscv.FMVXW:
		return c.xv(inst, next, uint64(int64(int32(uint32(f[rs1])))))
	case riscv.FMVWX:
		f[rd] = 0xFFFFFFFF_00000000 | uint64(uint32(c.X[rs1]))
		return c.retire(inst, next, false)
	case riscv.FEQD:
		if f64(f[rs1]) == f64(f[rs2]) {
			return c.xv(inst, next, 1)
		}
		return c.xv(inst, next, 0)
	case riscv.FLTD:
		if f64(f[rs1]) < f64(f[rs2]) {
			return c.xv(inst, next, 1)
		}
		return c.xv(inst, next, 0)
	case riscv.FLED:
		if f64(f[rs1]) <= f64(f[rs2]) {
			return c.xv(inst, next, 1)
		}
		return c.xv(inst, next, 0)
	}
	return c.execVector(inst, next)
}

// Vector fault causes, sentinels like the scalar ones in cpu.go.
var (
	errVLoad  = errors.New("vector load")
	errVStore = errors.New("vector store")
)

// vsetvli sets vtype and a vector length of min(AVL, VLMAX), where the AVL
// is x[rs1], VLMAX when rs1 is x0 and rd is not, and the current VL when
// both are x0 (RVV 1.0), and writes the length to rd. A VLMAX that the new
// vtype shrinks below the kept VL is a reserved use; VL is clamped to it.
func (c *CPU) vsetvli(rd, rs1 riscv.Reg, vtype int64) {
	max := uint64(riscv.VLenBytes >> riscv.SEWOf(vtype))
	avl := c.X[rs1]
	if rs1 == riscv.Zero {
		avl = max
		if rd == riscv.Zero {
			avl = c.VL
		}
	}
	c.VT, c.VL = vtype, min(avl, max)
	if rd != riscv.Zero {
		c.X[rd] = c.VL
	}
}

// vecMemBytes returns the byte length of a unit-stride vector load or
// store at the current VL. ok is false when the access would span more
// than one register: an element wider than SEW needs a register group,
// which this model does not implement.
func (c *CPU) vecMemBytes(op riscv.Op) (n uint64, ok bool) {
	n = c.VL * 4
	if op == riscv.VLE64V || op == riscv.VSE64V {
		n = c.VL * 8
	}
	return n, n <= riscv.VLenBytes
}

// execVector implements the RVV subset. The block engine runs the same
// semantics as µops (vsetvli, vecArith and an in-page path for loads and
// stores) and comes here only for what those cannot finish.
func (c *CPU) execVector(inst riscv.Inst, next uint64) (Stop, bool) {
	rd, rs1 := inst.Rd, inst.Rs1

	switch inst.Op {
	case riscv.VSETVLI:
		c.vsetvli(rd, rs1, inst.Imm)
		return c.retire(inst, next, false)

	case riscv.VLE32V, riscv.VLE64V:
		n, ok := c.vecMemBytes(inst.Op)
		if !ok {
			return c.vecIllegal(inst)
		}
		// Read into a buffer so a fault leaves the register untouched.
		var buf [riscv.VLenBytes]byte
		if fa, ok := c.Mem.Read(c.X[rs1], buf[:n]); !ok {
			return c.fault(FaultAccess, fa, errVLoad)
		}
		copy(c.V[rd][:], buf[:n])
		return c.retire(inst, next, false)

	case riscv.VSE32V, riscv.VSE64V:
		n, ok := c.vecMemBytes(inst.Op)
		if !ok {
			return c.vecIllegal(inst)
		}
		if fa, ok := c.Mem.Write(c.X[rs1], c.V[rd][:n]); !ok {
			return c.fault(FaultAccess, fa, errVStore)
		}
		return c.retire(inst, next, false)
	}
	if c.vecArith(inst.Op, rd, rs1, inst.Rs2, inst.Imm) {
		return c.retire(inst, next, false)
	}
	return c.vecIllegal(inst)
}

// vecIllegal faults on an op outside the subset, or on one the current
// vtype makes unimplemented.
func (c *CPU) vecIllegal(inst riscv.Inst) (Stop, bool) {
	return c.fault(FaultIllegal, c.PC, fmt.Errorf("unimplemented %s at vtype %#x", inst, c.VT))
}

// velem reads element i of v at an element width of 4 or 8 bytes.
func velem(v *Vec, i int, sew uint) uint64 {
	if sew == 4 {
		return uint64(binary.LittleEndian.Uint32(v[i*4:]))
	}
	return binary.LittleEndian.Uint64(v[i*8:])
}

// vset writes element i of v at an element width of 4 or 8 bytes.
func vset(v *Vec, i int, sew uint, x uint64) {
	if sew == 4 {
		binary.LittleEndian.PutUint32(v[i*4:], uint32(x))
		return
	}
	binary.LittleEndian.PutUint64(v[i*8:], x)
}

// velemF reads element i of v as a float64: a binary32 element widens
// exactly.
func velemF(v *Vec, i int, sew uint) float64 {
	if sew == 4 {
		return float64(math.Float32frombits(uint32(velem(v, i, 4))))
	}
	return f64(velem(v, i, 8))
}

// vsetF writes x to element i of v, rounding it to binary32 at SEW 32.
func vsetF(v *Vec, i int, sew uint, x float64) {
	if sew == 4 {
		vset(v, i, 4, uint64(math.Float32bits(float32(x))))
		return
	}
	vset(v, i, 8, f64b(x))
}

// vecArith runs an RVV arithmetic, move or reduction op over the active
// elements at the current SEW and reports whether it did. It changes
// nothing and returns false for any other op, and for a SEW other than 32
// or 64 bits. Both the interpreter and the block engine's µops execute
// vector arithmetic here.
//
// At SEW 64, vfmacc rounds once (math.FMA), as RISC-V does. At SEW 32 the
// float ops compute in float64 and round to binary32: exact for add and
// multiply, but vfmacc and vfredusum can round twice.
func (c *CPU) vecArith(op riscv.Op, rd, rs1, rs2 riscv.Reg, imm int64) bool {
	var sew uint
	switch riscv.SEWOf(c.VT) {
	case riscv.E32:
		sew = 4
	case riscv.E64:
		sew = 8
	default:
		return false
	}
	vd, v1, v2 := &c.V[rd], &c.V[rs1], &c.V[rs2]
	vl := int(c.VL)
	switch op {
	case riscv.VADDVV:
		for i := 0; i < vl; i++ {
			vset(vd, i, sew, velem(v2, i, sew)+velem(v1, i, sew))
		}
	case riscv.VADDVX:
		for i := 0; i < vl; i++ {
			vset(vd, i, sew, velem(v2, i, sew)+c.X[rs1])
		}
	case riscv.VMULVV:
		for i := 0; i < vl; i++ {
			vset(vd, i, sew, velem(v2, i, sew)*velem(v1, i, sew))
		}
	case riscv.VMVVI, riscv.VMVVX:
		x := uint64(imm)
		if op == riscv.VMVVX {
			x = c.X[rs1]
		}
		for i := 0; i < vl; i++ {
			vset(vd, i, sew, x)
		}
	case riscv.VFADDVV:
		for i := 0; i < vl; i++ {
			vsetF(vd, i, sew, velemF(v2, i, sew)+velemF(v1, i, sew))
		}
	case riscv.VFMULVV:
		for i := 0; i < vl; i++ {
			vsetF(vd, i, sew, velemF(v2, i, sew)*velemF(v1, i, sew))
		}
	case riscv.VFMACCVV:
		// vd[i] += vs1[i] * vs2[i]
		for i := 0; i < vl; i++ {
			vsetF(vd, i, sew, math.FMA(velemF(v1, i, sew), velemF(v2, i, sew), velemF(vd, i, sew)))
		}
	case riscv.VFMACCVF:
		// vd[i] += f[rs1] * vs2[i]
		s := f64(c.F[rs1])
		if sew == 4 {
			s = float64(f32of(c.F[rs1]))
		}
		for i := 0; i < vl; i++ {
			vsetF(vd, i, sew, math.FMA(s, velemF(v2, i, sew), velemF(vd, i, sew)))
		}
	case riscv.VFMVVF:
		for i := 0; i < vl; i++ {
			vset(vd, i, sew, c.F[rs1])
		}
	case riscv.VFMVFS:
		if sew == 4 {
			c.F[rd] = 0xFFFFFFFF_00000000 | velem(v2, 0, 4)
		} else {
			c.F[rd] = velem(v2, 0, 8)
		}
	case riscv.VFREDUSUMVS:
		// vd[0] = vs1[0] + sum(vs2[0..vl)); at VL 0 vd is left unchanged.
		if vl == 0 {
			break
		}
		acc := velemF(v1, 0, sew)
		for i := 0; i < vl; i++ {
			acc += velemF(v2, i, sew)
		}
		vsetF(vd, 0, sew, acc)
	default:
		return false
	}
	return true
}
