package translate

import (
	"slices"

	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// UpgradeSite is a matched base-instruction idiom and its extension-ISA
// replacement. The addresses are contiguous instructions forming the source
// sequence (Fig. 6b upgrades a run of source instructions at once).
type UpgradeSite struct {
	Kind  string
	Addrs []uint64
	// Replacement is the extension-ISA target sequence (4-byte encodings).
	Replacement []riscv.Inst
}

// Start returns the first source address.
func (u *UpgradeSite) Start() uint64 { return u.Addrs[0] }

// MatchUpgrades scans a disassembly for upgradeable idioms. Like the
// paper's upgrade path, it is template-driven: it recognizes the scalar
// loop shapes compilers (here: the workload builder) emit for dot-product
// and axpy kernels, plus the slli+add pair that Zba's shNadd fuses.
func MatchUpgrades(d *dis.Result) []UpgradeSite {
	return scan(d, upgradeIdioms)
}

// upgradeIdioms dispatches on an idiom's first opcode: fld opens the dot
// and axpy loops (tried in that order), slli the shNadd pair.
func upgradeIdioms(op riscv.Op) []idiom {
	switch op {
	case riscv.FLD:
		return fldIdioms
	case riscv.SLLI:
		return slliIdioms
	}
	return nil
}

var (
	fldIdioms  = []idiom{{7, matchDotLoop}, {8, matchAxpyLoop}}
	slliIdioms = []idiom{{2, matchShadd}}
)

// idiom is one template: its length in instructions and the matcher that
// checks a chain of that many contiguous instructions and builds the
// replacement (Kind and Replacement; scan fills in Addrs).
type idiom struct {
	n     int
	match func(is []riscv.Inst, addrs []uint64) (UpgradeSite, bool)
}

// scan walks the disassembly once. At each instruction no earlier site
// claimed, it tries the idioms the opcode dispatches to, in order; the
// first that matches is kept unless one of its instructions is already
// claimed, and then claims them all.
func scan(d *dis.Result, dispatch func(riscv.Op) []idiom) []UpgradeSite {
	var sites []UpgradeSite
	claimed := make([]bool, len(d.Order))
	w := new(window)
	for i, in := range d.Insts {
		if claimed[i] {
			continue
		}
		for _, id := range dispatch(in.Op) {
			is, addrs, ok := w.chain(d, i, id.n)
			if !ok {
				continue
			}
			s, ok := id.match(is, addrs)
			if !ok {
				continue
			}
			idx := w.idx[:id.n]
			if !slices.ContainsFunc(idx, func(j int) bool { return claimed[j] }) {
				for _, j := range idx {
					claimed[j] = true
				}
				s.Addrs = slices.Clone(addrs)
				sites = append(sites, s)
			}
			break
		}
	}
	return sites
}

// maxIdiom is the longest idiom's length (the vector dot loop).
const maxIdiom = 15

// window holds the chain of contiguous instructions a matcher inspects;
// one window serves a whole scan.
type window struct {
	idx   [maxIdiom]int
	insts [maxIdiom]riscv.Inst
	addrs [maxIdiom]uint64
}

// chain gathers the n contiguous instructions starting at index i — each
// beginning where the previous one ends — or reports that the run breaks
// off first.
func (w *window) chain(d *dis.Result, i, n int) ([]riscv.Inst, []uint64, bool) {
	for k := 0; k < n; k++ {
		if k > 0 {
			var ok bool
			if i, ok = d.Fallthrough(i); !ok {
				return nil, nil, false
			}
		}
		w.idx[k], w.insts[k], w.addrs[k] = i, d.Insts[i], d.Order[i]
	}
	return w.insts[:n], w.addrs[:n], true
}

// matchDotLoop recognizes the canonical scalar dot-product inner loop:
//
//	loop: fld fX, 0(rA); fld fY, 0(rB); fmadd.d fACC, fX, fY, fACC
//	      addi rA, rA, 8; addi rB, rB, 8; addi rN, rN, -1
//	      bne rN, zero, loop
func matchDotLoop(is []riscv.Inst, addrs []uint64) (UpgradeSite, bool) {
	l0, l1, fma, adA, adB, adN, br := is[0], is[1], is[2], is[3], is[4], is[5], is[6]
	if l0.Op != riscv.FLD || l0.Imm != 0 ||
		l1.Op != riscv.FLD || l1.Imm != 0 ||
		fma.Op != riscv.FMADDD || fma.Rs1 != l0.Rd || fma.Rs2 != l1.Rd || fma.Rs3 != fma.Rd {
		return UpgradeSite{}, false
	}
	rA, rB := l0.Rs1, l1.Rs1
	if adA.Op != riscv.ADDI || adA.Rd != rA || adA.Rs1 != rA || adA.Imm != 8 ||
		adB.Op != riscv.ADDI || adB.Rd != rB || adB.Rs1 != rB || adB.Imm != 8 {
		return UpgradeSite{}, false
	}
	rN := adN.Rd
	if adN.Op != riscv.ADDI || adN.Rs1 != rN || adN.Imm != -1 || rN == rA || rN == rB {
		return UpgradeSite{}, false
	}
	if br.Op != riscv.BNE || br.Rs1 != rN || br.Rs2 != riscv.Zero ||
		addrs[6]+uint64(br.Imm) != addrs[0] {
		return UpgradeSite{}, false
	}
	acc := fma.Rd

	s := newSeq()
	xs := pickScratch(2, rA, rB, rN)
	t0, t1 := xs[0], xs[1]
	withSaves(s, xs, nil, func() {
		vt := riscv.VType(riscv.E64)
		s.emit(riscv.Inst{Op: riscv.VSETVLI, Rd: t0, Rs1: riscv.Zero, Imm: vt})
		s.emit(riscv.Inst{Op: riscv.VMVVI, Rd: 2, Imm: 0}) // acc vector
		s.label("loop")
		s.emit(riscv.Inst{Op: riscv.VSETVLI, Rd: t0, Rs1: rN, Imm: vt})
		s.emit(riscv.Inst{Op: riscv.VLE64V, Rd: 0, Rs1: rA})
		s.emit(riscv.Inst{Op: riscv.VLE64V, Rd: 1, Rs1: rB})
		s.emit(riscv.Inst{Op: riscv.VFMACCVV, Rd: 2, Rs1: 0, Rs2: 1})
		s.imm(riscv.SLLI, t1, t0, 3)
		s.op(riscv.ADD, rA, rA, t1)
		s.op(riscv.ADD, rB, rB, t1)
		s.op(riscv.SUB, rN, rN, t0)
		s.branch(riscv.BNE, rN, riscv.Zero, "loop")
		// Reduce at full length: v1[0] seeded with the scalar accumulator.
		s.emit(riscv.Inst{Op: riscv.VSETVLI, Rd: t0, Rs1: riscv.Zero, Imm: vt})
		s.emit(riscv.Inst{Op: riscv.VFMVVF, Rd: 1, Rs1: acc})
		s.emit(riscv.Inst{Op: riscv.VFREDUSUMVS, Rd: 0, Rs1: 1, Rs2: 2})
		s.emit(riscv.Inst{Op: riscv.VFMVFS, Rd: acc, Rs2: 0})
	})
	repl, err := s.finish()
	if err != nil {
		return UpgradeSite{}, false
	}
	return UpgradeSite{Kind: "dot.e64", Replacement: repl}, true
}

// matchAxpyLoop recognizes the canonical scalar axpy inner loop:
//
//	loop: fld fX, 0(rA); fld fY, 0(rB); fmadd.d fY, fX, fALPHA, fY; fsd fY, 0(rB)
//	      addi rA, rA, 8; addi rB, rB, 8; addi rN, rN, -1
//	      bne rN, zero, loop
func matchAxpyLoop(is []riscv.Inst, addrs []uint64) (UpgradeSite, bool) {
	l0, l1, fma, st, adA, adB, adN, br := is[0], is[1], is[2], is[3], is[4], is[5], is[6], is[7]
	if l0.Op != riscv.FLD || l0.Imm != 0 ||
		l1.Op != riscv.FLD || l1.Imm != 0 ||
		fma.Op != riscv.FMADDD || fma.Rs1 != l0.Rd || fma.Rd != l1.Rd || fma.Rs3 != l1.Rd {
		return UpgradeSite{}, false
	}
	alpha := fma.Rs2
	rA, rB := l0.Rs1, l1.Rs1
	if st.Op != riscv.FSD || st.Rs2 != fma.Rd || st.Rs1 != rB || st.Imm != 0 {
		return UpgradeSite{}, false
	}
	if adA.Op != riscv.ADDI || adA.Rd != rA || adA.Rs1 != rA || adA.Imm != 8 ||
		adB.Op != riscv.ADDI || adB.Rd != rB || adB.Rs1 != rB || adB.Imm != 8 {
		return UpgradeSite{}, false
	}
	rN := adN.Rd
	if adN.Op != riscv.ADDI || adN.Rs1 != rN || adN.Imm != -1 || rN == rA || rN == rB {
		return UpgradeSite{}, false
	}
	if br.Op != riscv.BNE || br.Rs1 != rN || br.Rs2 != riscv.Zero ||
		addrs[7]+uint64(br.Imm) != addrs[0] {
		return UpgradeSite{}, false
	}

	s := newSeq()
	xs := pickScratch(2, rA, rB, rN)
	t0, t1 := xs[0], xs[1]
	withSaves(s, xs, nil, func() {
		vt := riscv.VType(riscv.E64)
		s.label("loop")
		s.emit(riscv.Inst{Op: riscv.VSETVLI, Rd: t0, Rs1: rN, Imm: vt})
		s.emit(riscv.Inst{Op: riscv.VLE64V, Rd: 0, Rs1: rA})
		s.emit(riscv.Inst{Op: riscv.VLE64V, Rd: 1, Rs1: rB})
		s.emit(riscv.Inst{Op: riscv.VFMACCVF, Rd: 1, Rs1: alpha, Rs2: 0})
		s.emit(riscv.Inst{Op: riscv.VSE64V, Rd: 1, Rs1: rB})
		s.imm(riscv.SLLI, t1, t0, 3)
		s.op(riscv.ADD, rA, rA, t1)
		s.op(riscv.ADD, rB, rB, t1)
		s.op(riscv.SUB, rN, rN, t0)
		s.branch(riscv.BNE, rN, riscv.Zero, "loop")
	})
	repl, err := s.finish()
	if err != nil {
		return UpgradeSite{}, false
	}
	return UpgradeSite{Kind: "axpy.e64", Replacement: repl}, true
}

// matchShadd recognizes "slli rd, rs1, k; add rd, rd, rs2" (k in 1..3,
// rs2 != rd) and fuses it into Zba's shNadd.
func matchShadd(is []riscv.Inst, _ []uint64) (UpgradeSite, bool) {
	sl, ad := is[0], is[1]
	if sl.Op != riscv.SLLI || sl.Imm < 1 || sl.Imm > 3 {
		return UpgradeSite{}, false
	}
	if ad.Op != riscv.ADD || ad.Rd != sl.Rd || ad.Rs1 != sl.Rd || ad.Rs2 == sl.Rd || ad.Rs2 == riscv.Zero {
		return UpgradeSite{}, false
	}
	// rd may alias rs1: shNadd reads rs1 before it writes rd, so
	// "slli a0, a0, k; add a0, a0, a1" fuses to "shNadd a0, a0, a1". Only
	// rs2 must differ from rd, since the add reads it after the slli wrote
	// rd.
	op := []riscv.Op{riscv.SH1ADD, riscv.SH2ADD, riscv.SH3ADD}[sl.Imm-1]
	repl := []riscv.Inst{{Op: op, Rd: ad.Rd, Rs1: sl.Rs1, Rs2: ad.Rs2}}
	return UpgradeSite{Kind: "shadd", Replacement: repl}, true
}
