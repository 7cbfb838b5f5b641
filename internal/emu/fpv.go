package emu

import (
	"encoding/binary"
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

// execFPV implements the floating-point and vector subset.
func (c *CPU) execFPV(inst riscv.Inst, next uint64) (Stop, bool) {
	rd, rs1, rs2, rs3 := inst.Rd, inst.Rs1, inst.Rs2, inst.Rs3

	d1, d2, d3 := f64(c.F[rs1]), f64(c.F[rs2]), f64(c.F[rs3])
	s1f, s2f, s3f := f32of(c.F[rs1]), f32of(c.F[rs2]), f32of(c.F[rs3])

	switch inst.Op {
	case riscv.FADDS:
		return c.fs(inst, next, s1f+s2f)
	case riscv.FSUBS:
		return c.fs(inst, next, s1f-s2f)
	case riscv.FMULS:
		return c.fs(inst, next, s1f*s2f)
	case riscv.FDIVS:
		return c.fs(inst, next, s1f/s2f)
	case riscv.FMADDS:
		return c.fs(inst, next, s1f*s2f+s3f)
	case riscv.FADDD:
		return c.fd(inst, next, d1+d2)
	case riscv.FSUBD:
		return c.fd(inst, next, d1-d2)
	case riscv.FMULD:
		return c.fd(inst, next, d1*d2)
	case riscv.FDIVD:
		return c.fd(inst, next, d1/d2)
	case riscv.FMADDD:
		return c.fd(inst, next, d1*d2+d3)
	case riscv.FSGNJS:
		v := uint32(c.F[rs1])&0x7FFFFFFF | uint32(c.F[rs2])&0x80000000
		c.F[rd] = 0xFFFFFFFF_00000000 | uint64(v)
		return c.retire(inst, next, false)
	case riscv.FSGNJD:
		c.F[rd] = c.F[rs1]&0x7FFFFFFF_FFFFFFFF | c.F[rs2]&0x80000000_00000000
		return c.retire(inst, next, false)
	case riscv.FCVTSL:
		return c.fs(inst, next, float32(int64(c.X[rs1])))
	case riscv.FCVTDL:
		return c.fd(inst, next, float64(int64(c.X[rs1])))
	case riscv.FCVTLD:
		return c.xv(inst, next, fcvtLD(d1))
	case riscv.FMVXD:
		return c.xv(inst, next, c.F[rs1])
	case riscv.FMVDX:
		c.F[rd] = c.X[rs1]
		return c.retire(inst, next, false)
	case riscv.FMVXW:
		return c.xv(inst, next, uint64(int64(int32(uint32(c.F[rs1])))))
	case riscv.FMVWX:
		c.F[rd] = 0xFFFFFFFF_00000000 | uint64(uint32(c.X[rs1]))
		return c.retire(inst, next, false)
	case riscv.FEQD:
		if d1 == d2 {
			return c.xv(inst, next, 1)
		}
		return c.xv(inst, next, 0)
	case riscv.FLTD:
		if d1 < d2 {
			return c.xv(inst, next, 1)
		}
		return c.xv(inst, next, 0)
	case riscv.FLED:
		if d1 <= d2 {
			return c.xv(inst, next, 1)
		}
		return c.xv(inst, next, 0)
	}
	return c.execVector(inst, next)
}

// vlmax returns the number of elements a vector register holds at the
// current element width.
func (c *CPU) vlmax() uint64 {
	return uint64(riscv.VLenBytes / riscv.SEWOf(c.VT).Bytes())
}

func (c *CPU) sewBytes() int { return riscv.SEWOf(c.VT).Bytes() }

func (c *CPU) execVector(inst riscv.Inst, next uint64) (Stop, bool) {
	rd, rs1, rs2 := inst.Rd, inst.Rs1, inst.Rs2

	switch inst.Op {
	case riscv.VSETVLI:
		c.VT = inst.Imm
		avl := c.X[rs1]
		if rs1 == riscv.Zero {
			avl = c.vlmax() // rd!=0, rs1==0: set vl to VLMAX
		}
		if max := c.vlmax(); avl > max {
			avl = max
		}
		c.VL = avl
		c.X[rd] = avl
		return c.retire(inst, next, false)

	case riscv.VLE32V, riscv.VLE64V:
		size := 4
		if inst.Op == riscv.VLE64V {
			size = 8
		}
		// n never exceeds VLenBytes (VL is capped at VLMAX), so a fixed
		// buffer keeps the vector hot loop allocation-free.
		var buf [riscv.VLenBytes]byte
		n := int(c.VL) * size
		if fa, ok := c.Mem.Read(c.X[rs1], buf[:n]); !ok {
			return c.fault(FaultAccess, fa, fmt.Errorf("vector load"))
		}
		copy(c.V[rd][:], buf[:n])
		return c.retire(inst, next, false)

	case riscv.VSE32V, riscv.VSE64V:
		size := 4
		if inst.Op == riscv.VSE64V {
			size = 8
		}
		n := int(c.VL) * size
		if fa, ok := c.Mem.Write(c.X[rs1], c.V[rd][:n]); !ok {
			return c.fault(FaultAccess, fa, fmt.Errorf("vector store"))
		}
		return c.retire(inst, next, false)
	}

	sew := c.sewBytes()
	ld := func(v *Vec, i int) uint64 {
		switch sew {
		case 4:
			return uint64(binary.LittleEndian.Uint32(v[i*4:]))
		default:
			return binary.LittleEndian.Uint64(v[i*8:])
		}
	}
	st := func(v *Vec, i int, val uint64) {
		switch sew {
		case 4:
			binary.LittleEndian.PutUint32(v[i*4:], uint32(val))
		default:
			binary.LittleEndian.PutUint64(v[i*8:], val)
		}
	}
	ldf := func(v *Vec, i int) float64 {
		if sew == 4 {
			return float64(f32of(0xFFFFFFFF_00000000 | ld(v, i)))
		}
		return f64(ld(v, i))
	}
	stf := func(v *Vec, i int, val float64) {
		if sew == 4 {
			st(v, i, uint64(f32b(float32(val)))&0xFFFFFFFF)
			return
		}
		st(v, i, f64b(val))
	}
	vl := int(c.VL)

	switch inst.Op {
	case riscv.VADDVV:
		for i := 0; i < vl; i++ {
			st(&c.V[rd], i, ld(&c.V[rs2], i)+ld(&c.V[rs1], i))
		}
	case riscv.VADDVX:
		for i := 0; i < vl; i++ {
			st(&c.V[rd], i, ld(&c.V[rs2], i)+c.X[rs1])
		}
	case riscv.VMULVV:
		for i := 0; i < vl; i++ {
			st(&c.V[rd], i, ld(&c.V[rs2], i)*ld(&c.V[rs1], i))
		}
	case riscv.VMVVI:
		for i := 0; i < vl; i++ {
			st(&c.V[rd], i, uint64(inst.Imm))
		}
	case riscv.VMVVX:
		for i := 0; i < vl; i++ {
			st(&c.V[rd], i, c.X[rs1])
		}
	case riscv.VFADDVV:
		for i := 0; i < vl; i++ {
			stf(&c.V[rd], i, ldf(&c.V[rs2], i)+ldf(&c.V[rs1], i))
		}
	case riscv.VFMULVV:
		for i := 0; i < vl; i++ {
			stf(&c.V[rd], i, ldf(&c.V[rs2], i)*ldf(&c.V[rs1], i))
		}
	case riscv.VFMACCVV:
		// vd[i] += vs1[i] * vs2[i]
		for i := 0; i < vl; i++ {
			stf(&c.V[rd], i, ldf(&c.V[rd], i)+ldf(&c.V[rs1], i)*ldf(&c.V[rs2], i))
		}
	case riscv.VFMACCVF:
		// vd[i] += f[rs1] * vs2[i]
		var scalar float64
		if sew == 4 {
			scalar = float64(f32of(c.F[rs1]))
		} else {
			scalar = f64(c.F[rs1])
		}
		for i := 0; i < vl; i++ {
			stf(&c.V[rd], i, ldf(&c.V[rd], i)+scalar*ldf(&c.V[rs2], i))
		}
	case riscv.VFMVVF:
		var bits uint64
		if sew == 4 {
			bits = c.F[rs1] & 0xFFFFFFFF
		} else {
			bits = c.F[rs1]
		}
		for i := 0; i < vl; i++ {
			st(&c.V[rd], i, bits)
		}
	case riscv.VFMVFS:
		if sew == 4 {
			c.F[rd] = 0xFFFFFFFF_00000000 | ld(&c.V[rs2], 0)
		} else {
			c.F[rd] = ld(&c.V[rs2], 0)
		}
	case riscv.VFREDUSUMVS:
		// vd[0] = vs1[0] + sum(vs2[0..vl))
		acc := ldf(&c.V[rs1], 0)
		for i := 0; i < vl; i++ {
			acc += ldf(&c.V[rs2], i)
		}
		stf(&c.V[rd], 0, acc)
	default:
		return c.fault(FaultIllegal, c.PC, fmt.Errorf("unimplemented %s", inst))
	}
	return c.retire(inst, next, false)
}
