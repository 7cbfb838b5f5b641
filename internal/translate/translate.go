// Package translate generates target instructions for source instructions
// (§4.1): downgrading translates extension instructions into semantically
// equivalent base-ISA sequences, upgrading replaces known base idioms with
// extension instructions. It plays the role of the QEMU TCG translation
// templates in the paper's pipeline.
//
// Two register-mismatch problems are handled exactly as in the paper:
//
//   - Extra base registers: translations that need scratch integer or fp
//     registers save and restore them on the stack in first-in/last-out
//     order around the computation.
//   - Unsupported extension registers: the 32 vector registers plus vl/vtype
//     are simulated in a dedicated read/write data section of the rewritten
//     binary; vector register accesses become memory accesses into it.
package translate

import (
	"fmt"

	"github.com/eurosys26p57/chimera/internal/riscv"
)

// Context carries the rewrite-time environment translations need.
type Context struct {
	// VRegBase is the absolute address of the simulated vector state
	// section: vl at +0, vtype at +8, then v0..v31 at 32-byte stride.
	VRegBase uint64
}

// VRegFileSize is the byte size of the simulated vector state.
const VRegFileSize = 16 + 32*riscv.VLenBytes

// vregOff returns the offset of vector register v in the simulated file.
func vregOff(v riscv.Reg) int64 { return 16 + 32*int64(v) }

// seq is a micro-assembler for translation templates: 4-byte instructions
// only, local labels, branch offsets resolved at finish.
type seq struct {
	insts  []riscv.Inst
	labels map[string]int
	fixes  []struct {
		idx   int
		label string
	}
}

func newSeq() *seq { return &seq{labels: map[string]int{}} }

func (s *seq) emit(in riscv.Inst) { s.insts = append(s.insts, in) }

func (s *seq) op(op riscv.Op, rd, rs1, rs2 riscv.Reg) {
	s.emit(riscv.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

func (s *seq) imm(op riscv.Op, rd, rs1 riscv.Reg, v int64) {
	s.emit(riscv.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: v})
}

func (s *seq) load(op riscv.Op, rd, base riscv.Reg, off int64) {
	s.emit(riscv.Inst{Op: op, Rd: rd, Rs1: base, Imm: off})
}

func (s *seq) store(op riscv.Op, src, base riscv.Reg, off int64) {
	s.emit(riscv.Inst{Op: op, Rs1: base, Rs2: src, Imm: off})
}

func (s *seq) label(name string) { s.labels[name] = len(s.insts) }

func (s *seq) branch(op riscv.Op, rs1, rs2 riscv.Reg, label string) {
	s.fixes = append(s.fixes, struct {
		idx   int
		label string
	}{len(s.insts), label})
	s.emit(riscv.Inst{Op: op, Rs1: rs1, Rs2: rs2})
}

func (s *seq) jump(label string) {
	s.fixes = append(s.fixes, struct {
		idx   int
		label string
	}{len(s.insts), label})
	s.emit(riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero})
}

// li materializes a 32-bit constant (our address space is < 2GB).
func (s *seq) li(rd riscv.Reg, v int64) {
	if v >= -2048 && v < 2048 {
		s.imm(riscv.ADDI, rd, riscv.Zero, v)
		return
	}
	hi := (v + 0x800) >> 12
	lo := v - hi<<12
	s.emit(riscv.Inst{Op: riscv.LUI, Rd: rd, Imm: hi})
	s.imm(riscv.ADDIW, rd, rd, lo)
}

func (s *seq) finish() ([]riscv.Inst, error) {
	for _, f := range s.fixes {
		target, ok := s.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("translate: unresolved template label %q", f.label)
		}
		s.insts[f.idx].Imm = int64(target-f.idx) * 4
	}
	return s.insts, nil
}

// scratchPool orders integer scratch candidates. sp/gp/tp/zero are never
// scratch; ra last because clobbering it is common but save/restore makes
// it safe anyway.
var scratchPool = []riscv.Reg{
	riscv.T0, riscv.T1, riscv.T2, riscv.T3, riscv.T4, riscv.T5, riscv.T6,
	riscv.A6, riscv.A7, riscv.A4, riscv.A5, riscv.S10, riscv.S11,
}

// pickScratch returns n distinct scratch registers avoiding the given
// operand registers.
func pickScratch(n int, avoid ...riscv.Reg) []riscv.Reg {
	bad := map[riscv.Reg]bool{}
	for _, r := range avoid {
		bad[r] = true
	}
	var out []riscv.Reg
	for _, r := range scratchPool {
		if !bad[r] {
			out = append(out, r)
			if len(out) == n {
				return out
			}
		}
	}
	panic("translate: scratch pool exhausted")
}

// withSaves wraps body in stack save/restore of the given integer and fp
// scratch registers, first-in/last-out (§4.1).
func withSaves(s *seq, xs []riscv.Reg, fs []riscv.Reg, body func()) {
	frame := int64(8 * (len(xs) + len(fs)))
	if frame > 0 {
		s.imm(riscv.ADDI, riscv.SP, riscv.SP, -frame)
		off := int64(0)
		for _, r := range xs {
			s.store(riscv.SD, r, riscv.SP, off)
			off += 8
		}
		for _, r := range fs {
			s.store(riscv.FSD, r, riscv.SP, off)
			off += 8
		}
	}
	body()
	if frame > 0 {
		off := frame - 8
		for i := len(fs) - 1; i >= 0; i-- {
			s.load(riscv.FLD, fs[i], riscv.SP, off)
			off -= 8
		}
		for i := len(xs) - 1; i >= 0; i-- {
			s.load(riscv.LD, xs[i], riscv.SP, off)
			off -= 8
		}
		s.imm(riscv.ADDI, riscv.SP, riscv.SP, frame)
	}
}

// Downgrade translates one source instruction into base-ISA target
// instructions. sew is the element width in effect at the instruction
// (resolved by the rewriter from the dominating vsetvli). The returned
// sequence uses only RV64IMFD instructions.
func Downgrade(inst riscv.Inst, sew riscv.SEW, ctx *Context) ([]riscv.Inst, error) {
	if ctx == nil || ctx.VRegBase == 0 {
		return nil, fmt.Errorf("translate: no vector state section configured")
	}
	switch inst.Op {
	case riscv.SH1ADD, riscv.SH2ADD, riscv.SH3ADD:
		return downgradeShadd(inst)
	case riscv.ANDN, riscv.ORN, riscv.XNOR:
		return downgradeZbbLogic(inst)
	}
	if !inst.IsVector() {
		return nil, fmt.Errorf("translate: no downgrade template for %s", inst)
	}
	return downgradeVector(inst, sew, ctx)
}

// downgradeShadd translates shNadd rd, rs1, rs2 -> slli + add, scavenging a
// scratch register (with stack spill) when the destination aliases rs2 —
// the paper's "use extra base registers" example.
func downgradeShadd(inst riscv.Inst) ([]riscv.Inst, error) {
	shift := int64(1)
	switch inst.Op {
	case riscv.SH2ADD:
		shift = 2
	case riscv.SH3ADD:
		shift = 3
	}
	s := newSeq()
	if inst.Rd != inst.Rs2 {
		s.imm(riscv.SLLI, inst.Rd, inst.Rs1, shift)
		s.op(riscv.ADD, inst.Rd, inst.Rd, inst.Rs2)
		return s.finish()
	}
	t := pickScratch(1, inst.Rd, inst.Rs1, inst.Rs2)[0]
	withSaves(s, []riscv.Reg{t}, nil, func() {
		s.imm(riscv.SLLI, t, inst.Rs1, shift)
		s.op(riscv.ADD, inst.Rd, t, inst.Rs2)
	})
	return s.finish()
}

func downgradeZbbLogic(inst riscv.Inst) ([]riscv.Inst, error) {
	s := newSeq()
	t := pickScratch(1, inst.Rd, inst.Rs1, inst.Rs2)[0]
	withSaves(s, []riscv.Reg{t}, nil, func() {
		// not rs2 -> t, then combine.
		s.imm(riscv.XORI, t, inst.Rs2, -1)
		switch inst.Op {
		case riscv.ANDN:
			s.op(riscv.AND, inst.Rd, inst.Rs1, t)
		case riscv.ORN:
			s.op(riscv.OR, inst.Rd, inst.Rs1, t)
		case riscv.XNOR:
			s.op(riscv.XOR, inst.Rd, inst.Rs1, t)
		}
	})
	return s.finish()
}

func elemOp(sew riscv.SEW) (load, store riscv.Op, size int64, err error) {
	switch sew {
	case riscv.E32:
		return riscv.LWU, riscv.SW, 4, nil
	case riscv.E64:
		return riscv.LD, riscv.SD, 8, nil
	}
	return 0, 0, 0, fmt.Errorf("translate: unsupported element width e%d", 8<<sew)
}

func felemOp(sew riscv.SEW) (load, store riscv.Op, size int64, err error) {
	switch sew {
	case riscv.E32:
		return riscv.FLW, riscv.FSW, 4, nil
	case riscv.E64:
		return riscv.FLD, riscv.FSD, 8, nil
	}
	return 0, 0, 0, fmt.Errorf("translate: unsupported element width e%d", 8<<sew)
}

func downgradeVector(inst riscv.Inst, sew riscv.SEW, ctx *Context) ([]riscv.Inst, error) {
	s := newSeq()
	base := int64(ctx.VRegBase)

	switch inst.Op {
	case riscv.VSETVLI:
		// vl = min(avl, VLMAX), where avl is rs1, VLMAX when rs1 is x0 and
		// rd is not, or the current vl when both are x0 (RVV 1.0); store vl
		// and vtype; rd = vl.
		vlmax := int64(riscv.VLenBytes / riscv.SEWOf(inst.Imm).Bytes())
		keep := inst.Rs1 == riscv.Zero && inst.Rd == riscv.Zero
		n := 2
		if keep {
			n = 3
		}
		xs := pickScratch(n, inst.Rd, inst.Rs1)
		b, t := xs[0], xs[1]
		withSaves(s, xs, nil, func() {
			s.li(b, base)
			avl := inst.Rs1
			if keep {
				avl = xs[2]
				s.load(riscv.LD, avl, b, 0)
			}
			s.li(t, vlmax)
			if avl != riscv.Zero {
				s.branch(riscv.BGEU, avl, t, "clamp")
				s.op(riscv.ADD, t, riscv.Zero, avl)
				s.label("clamp")
			}
			s.store(riscv.SD, t, b, 0)
			// vtype is a constant; reuse t after saving vl... t still holds vl,
			// store vtype via a fresh immediate into t after vl is stored.
			if inst.Rd != riscv.Zero {
				s.op(riscv.ADD, inst.Rd, riscv.Zero, t)
			}
			s.li(t, inst.Imm)
			s.store(riscv.SD, t, b, 8)
		})
		return s.finish()

	case riscv.VLE32V, riscv.VLE64V, riscv.VSE32V, riscv.VSE64V:
		isLoad := inst.Op == riscv.VLE32V || inst.Op == riscv.VLE64V
		sz := int64(8)
		if inst.Op == riscv.VLE32V || inst.Op == riscv.VSE32V {
			sz = 4
		}
		return downgradeVecMem(inst, isLoad, sz, base)

	case riscv.VADDVV, riscv.VMULVV:
		ld, st, sz, err := elemOp(sew)
		if err != nil {
			return nil, err
		}
		aluOp := riscv.ADD
		if inst.Op == riscv.VMULVV {
			aluOp = riscv.MUL
		}
		xs := pickScratch(6)
		b, l, i, x, y, z := xs[0], xs[1], xs[2], xs[3], xs[4], xs[5]
		withSaves(s, xs, nil, func() {
			s.li(b, base)
			s.load(riscv.LD, l, b, 0)
			s.li(i, 0)
			s.label("loop")
			s.branch(riscv.BGE, i, l, "done")
			scaleIndex(s, x, i, sz)
			s.op(riscv.ADD, x, x, b)
			s.load(ld, y, x, vregOff(inst.Rs2))
			s.load(ld, z, x, vregOff(inst.Rs1))
			s.op(aluOp, y, y, z)
			s.store(st, y, x, vregOff(inst.Rd))
			s.imm(riscv.ADDI, i, i, 1)
			s.jump("loop")
			s.label("done")
		})
		return s.finish()

	case riscv.VADDVX:
		ld, st, sz, err := elemOp(sew)
		if err != nil {
			return nil, err
		}
		xs := pickScratch(5, inst.Rs1)
		b, l, i, x, y := xs[0], xs[1], xs[2], xs[3], xs[4]
		withSaves(s, xs, nil, func() {
			s.li(b, base)
			s.load(riscv.LD, l, b, 0)
			s.li(i, 0)
			s.label("loop")
			s.branch(riscv.BGE, i, l, "done")
			scaleIndex(s, x, i, sz)
			s.op(riscv.ADD, x, x, b)
			s.load(ld, y, x, vregOff(inst.Rs2))
			s.op(riscv.ADD, y, y, inst.Rs1)
			s.store(st, y, x, vregOff(inst.Rd))
			s.imm(riscv.ADDI, i, i, 1)
			s.jump("loop")
			s.label("done")
		})
		return s.finish()

	case riscv.VMVVI, riscv.VMVVX:
		_, st, sz, err := elemOp(sew)
		if err != nil {
			return nil, err
		}
		avoid := []riscv.Reg{}
		if inst.Op == riscv.VMVVX {
			avoid = append(avoid, inst.Rs1)
		}
		xs := pickScratch(5, avoid...)
		b, l, i, x, y := xs[0], xs[1], xs[2], xs[3], xs[4]
		withSaves(s, xs, nil, func() {
			s.li(b, base)
			s.load(riscv.LD, l, b, 0)
			if inst.Op == riscv.VMVVI {
				s.li(y, inst.Imm)
			} else {
				s.op(riscv.ADD, y, riscv.Zero, inst.Rs1)
			}
			s.li(i, 0)
			s.label("loop")
			s.branch(riscv.BGE, i, l, "done")
			scaleIndex(s, x, i, sz)
			s.op(riscv.ADD, x, x, b)
			s.store(st, y, x, vregOff(inst.Rd))
			s.imm(riscv.ADDI, i, i, 1)
			s.jump("loop")
			s.label("done")
		})
		return s.finish()

	case riscv.VFADDVV, riscv.VFMULVV, riscv.VFMACCVV, riscv.VFMACCVF,
		riscv.VFMVVF, riscv.VFMVFS, riscv.VFREDUSUMVS:
		return downgradeVectorFP(inst, sew, base)
	}
	return nil, fmt.Errorf("translate: no downgrade template for %s", inst)
}

func scaleIndex(s *seq, dst, idx riscv.Reg, sz int64) {
	if sz == 8 {
		s.imm(riscv.SLLI, dst, idx, 3)
	} else {
		s.imm(riscv.SLLI, dst, idx, 2)
	}
}

// downgradeVecMem translates unit-stride vector loads/stores.
func downgradeVecMem(inst riscv.Inst, isLoad bool, sz, base int64) ([]riscv.Inst, error) {
	s := newSeq()
	ld, st := riscv.LD, riscv.SD
	if sz == 4 {
		ld, st = riscv.LWU, riscv.SW
	}
	xs := pickScratch(5, inst.Rs1)
	b, l, i, x, y := xs[0], xs[1], xs[2], xs[3], xs[4]
	withSaves(s, xs, nil, func() {
		s.li(b, base)
		s.load(riscv.LD, l, b, 0)
		s.li(i, 0)
		s.label("loop")
		s.branch(riscv.BGE, i, l, "done")
		scaleIndex(s, x, i, sz)
		if isLoad {
			s.op(riscv.ADD, y, x, inst.Rs1)
			s.load(ld, y, y, 0)
			s.op(riscv.ADD, x, x, b)
			s.store(st, y, x, vregOff(inst.Rd))
		} else {
			s.op(riscv.ADD, y, x, b)
			s.load(ld, y, y, vregOff(inst.Rd))
			s.op(riscv.ADD, x, x, inst.Rs1)
			s.store(st, y, x, 0)
		}
		s.imm(riscv.ADDI, i, i, 1)
		s.jump("loop")
		s.label("done")
	})
	return s.finish()
}

// downgradeVectorFP translates the floating-point vector subset using fp
// scratch registers (saved on the stack like integer scratch).
func downgradeVectorFP(inst riscv.Inst, sew riscv.SEW, base int64) ([]riscv.Inst, error) {
	s := newSeq()
	fld, fst, sz, err := felemOp(sew)
	if err != nil {
		return nil, err
	}
	// fp scratch: f28-f31 (ft8-ft11); avoid program-visible operand f regs.
	fscratch := []riscv.Reg{28, 29, 30}
	fa, fb, fc := fscratch[0], fscratch[1], fscratch[2]
	if inst.Op == riscv.VFMACCVF || inst.Op == riscv.VFMVVF {
		// inst.Rs1 names an f register operand; scratch must not alias it.
		for i, r := range fscratch {
			if r == inst.Rs1 {
				fscratch[i] = 31
			}
		}
		fa, fb, fc = fscratch[0], fscratch[1], fscratch[2]
	}
	xs := pickScratch(4)
	b, l, i, x := xs[0], xs[1], xs[2], xs[3]

	switch inst.Op {
	case riscv.VFADDVV, riscv.VFMULVV, riscv.VFMACCVV:
		withSaves(s, xs, fscratch, func() {
			s.li(b, base)
			s.load(riscv.LD, l, b, 0)
			s.li(i, 0)
			s.label("loop")
			s.branch(riscv.BGE, i, l, "done")
			scaleIndex(s, x, i, sz)
			s.op(riscv.ADD, x, x, b)
			s.load(fld, fa, x, vregOff(inst.Rs1))
			s.load(fld, fb, x, vregOff(inst.Rs2))
			switch inst.Op {
			case riscv.VFADDVV:
				if sew == riscv.E32 {
					s.op(riscv.FADDS, fa, fb, fa)
				} else {
					s.op(riscv.FADDD, fa, fb, fa)
				}
			case riscv.VFMULVV:
				if sew == riscv.E32 {
					s.op(riscv.FMULS, fa, fb, fa)
				} else {
					s.op(riscv.FMULD, fa, fb, fa)
				}
			case riscv.VFMACCVV:
				// vd[i] += vs1[i]*vs2[i]
				s.load(fld, fc, x, vregOff(inst.Rd))
				if sew == riscv.E32 {
					s.emit(riscv.Inst{Op: riscv.FMADDS, Rd: fa, Rs1: fa, Rs2: fb, Rs3: fc})
				} else {
					s.emit(riscv.Inst{Op: riscv.FMADDD, Rd: fa, Rs1: fa, Rs2: fb, Rs3: fc})
				}
			}
			s.store(fst, fa, x, vregOff(inst.Rd))
			s.imm(riscv.ADDI, i, i, 1)
			s.jump("loop")
			s.label("done")
		})

	case riscv.VFMACCVF:
		withSaves(s, xs, []riscv.Reg{fa, fb}, func() {
			s.li(b, base)
			s.load(riscv.LD, l, b, 0)
			s.li(i, 0)
			s.label("loop")
			s.branch(riscv.BGE, i, l, "done")
			scaleIndex(s, x, i, sz)
			s.op(riscv.ADD, x, x, b)
			s.load(fld, fa, x, vregOff(inst.Rs2))
			s.load(fld, fb, x, vregOff(inst.Rd))
			if sew == riscv.E32 {
				s.emit(riscv.Inst{Op: riscv.FMADDS, Rd: fa, Rs1: fa, Rs2: inst.Rs1, Rs3: fb})
			} else {
				s.emit(riscv.Inst{Op: riscv.FMADDD, Rd: fa, Rs1: fa, Rs2: inst.Rs1, Rs3: fb})
			}
			s.store(fst, fa, x, vregOff(inst.Rd))
			s.imm(riscv.ADDI, i, i, 1)
			s.jump("loop")
			s.label("done")
		})

	case riscv.VFMVVF:
		withSaves(s, xs, nil, func() {
			s.li(b, base)
			s.load(riscv.LD, l, b, 0)
			s.li(i, 0)
			s.label("loop")
			s.branch(riscv.BGE, i, l, "done")
			scaleIndex(s, x, i, sz)
			s.op(riscv.ADD, x, x, b)
			s.store(fst, inst.Rs1, x, vregOff(inst.Rd))
			s.imm(riscv.ADDI, i, i, 1)
			s.jump("loop")
			s.label("done")
		})

	case riscv.VFMVFS:
		// f[rd] = v[rs2][0]: a single element load, no loop.
		xs2 := pickScratch(1)
		withSaves(s, xs2, nil, func() {
			s.li(xs2[0], base)
			s.load(fld, inst.Rd, xs2[0], vregOff(inst.Rs2))
		})

	case riscv.VFREDUSUMVS:
		// vd[0] = vs1[0] + sum(vs2[0..vl)); at vl 0, vd is left unchanged.
		withSaves(s, xs, fscratch, func() {
			s.li(b, base)
			s.load(riscv.LD, l, b, 0)
			s.branch(riscv.BEQ, l, riscv.Zero, "end")
			s.load(fld, fa, b, vregOff(inst.Rs1)) // accumulator seed
			s.li(i, 0)
			s.label("loop")
			s.branch(riscv.BGE, i, l, "done")
			scaleIndex(s, x, i, sz)
			s.op(riscv.ADD, x, x, b)
			s.load(fld, fb, x, vregOff(inst.Rs2))
			if sew == riscv.E32 {
				s.op(riscv.FADDS, fa, fa, fb)
			} else {
				s.op(riscv.FADDD, fa, fa, fb)
			}
			s.imm(riscv.ADDI, i, i, 1)
			s.jump("loop")
			s.label("done")
			s.store(fst, fa, b, vregOff(inst.Rd))
			s.label("end")
		})

	default:
		return nil, fmt.Errorf("translate: no fp template for %s", inst)
	}
	return s.finish()
}
