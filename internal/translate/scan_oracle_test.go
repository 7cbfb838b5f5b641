package translate_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/fuzz"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/translate"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// refChain is the per-address chain the one-pass scan replaced: n
// contiguous instructions from addr, each looked up in an address-keyed
// map.
func refChain(m map[uint64]riscv.Inst, addr uint64, n int) ([]riscv.Inst, []uint64, bool) {
	insts := make([]riscv.Inst, 0, n)
	addrs := make([]uint64, 0, n)
	for len(insts) < n {
		in, ok := m[addr]
		if !ok {
			return nil, nil, false
		}
		insts = append(insts, in)
		addrs = append(addrs, addr)
		addr += uint64(in.Len)
	}
	return insts, addrs, true
}

// refMatch runs one idiom matcher at addr, the way the per-address scan
// called it.
func refMatch(m map[uint64]riscv.Inst, addr uint64, n int, match translate.IdiomMatcher) (translate.UpgradeSite, bool) {
	is, addrs, ok := refChain(m, addr, n)
	if !ok {
		return translate.UpgradeSite{}, false
	}
	s, ok := match(is, addrs)
	s.Addrs = addrs
	return s, ok
}

func refMap(d *dis.Result) map[uint64]riscv.Inst {
	m := make(map[uint64]riscv.Inst, len(d.Order))
	for i, a := range d.Order {
		m[a] = d.Insts[i]
	}
	return m
}

// refMatchUpgrades is the per-address upgrade scan: every idiom tried at
// every unclaimed address, dot before axpy before shadd, a match kept
// only when none of its addresses is claimed.
func refMatchUpgrades(d *dis.Result) []translate.UpgradeSite {
	m := refMap(d)
	var sites []translate.UpgradeSite
	claimed := make(map[uint64]bool)
	claim := func(s translate.UpgradeSite) {
		for _, a := range s.Addrs {
			if claimed[a] {
				return
			}
		}
		for _, a := range s.Addrs {
			claimed[a] = true
		}
		sites = append(sites, s)
	}
	for _, addr := range d.Order {
		if claimed[addr] {
			continue
		}
		if s, ok := refMatch(m, addr, 7, translate.MatchDotLoop); ok {
			claim(s)
			continue
		}
		if s, ok := refMatch(m, addr, 8, translate.MatchAxpyLoop); ok {
			claim(s)
			continue
		}
		if s, ok := refMatch(m, addr, 2, translate.MatchShadd); ok {
			claim(s)
		}
	}
	return sites
}

// refMatchVectorDowngrades is the per-address vector-loop scan.
func refMatchVectorDowngrades(d *dis.Result) []translate.UpgradeSite {
	m := refMap(d)
	var sites []translate.UpgradeSite
	claimed := make(map[uint64]bool)
	for _, addr := range d.Order {
		if claimed[addr] {
			continue
		}
		if s, ok := refMatch(m, addr, 15, translate.MatchVectorDotLoop); ok {
			overlap := false
			for _, a := range s.Addrs {
				if claimed[a] {
					overlap = true
					break
				}
			}
			if !overlap {
				for _, a := range s.Addrs {
					claimed[a] = true
				}
				sites = append(sites, s)
			}
		}
	}
	return sites
}

// plantedIdioms assembles back-to-back and chained idioms: two adjacent
// dot loops, a dot loop directly followed by an axpy loop, a run of
// shadd pairs sharing registers, and two adjacent strip-mined vector dot
// loops of both element widths.
func plantedIdioms(t *testing.T, compress bool) *obj.Image {
	t.Helper()
	b := asm.NewBuilder(riscv.RV64GCV)
	b.Compress = compress
	b.Func("main")
	for k := 0; k < 2; k++ {
		loop := fmt.Sprintf("dot%d", k)
		b.Label(loop)
		b.Load(riscv.FLD, 0, riscv.A0, 0)
		b.Load(riscv.FLD, 1, riscv.A1, 0)
		b.I(riscv.Inst{Op: riscv.FMADDD, Rd: 10, Rs1: 0, Rs2: 1, Rs3: 10})
		b.Imm(riscv.ADDI, riscv.A0, riscv.A0, 8)
		b.Imm(riscv.ADDI, riscv.A1, riscv.A1, 8)
		b.Imm(riscv.ADDI, riscv.A2, riscv.A2, -1)
		b.Bne(riscv.A2, riscv.Zero, loop)
	}
	b.Label("axpy")
	b.Load(riscv.FLD, 0, riscv.A0, 0)
	b.Load(riscv.FLD, 1, riscv.A1, 0)
	b.I(riscv.Inst{Op: riscv.FMADDD, Rd: 1, Rs1: 0, Rs2: 10, Rs3: 1})
	b.Store(riscv.FSD, 1, riscv.A1, 0)
	b.Imm(riscv.ADDI, riscv.A0, riscv.A0, 8)
	b.Imm(riscv.ADDI, riscv.A1, riscv.A1, 8)
	b.Imm(riscv.ADDI, riscv.A2, riscv.A2, -1)
	b.Bne(riscv.A2, riscv.Zero, "axpy")
	for k := int64(1); k <= 3; k++ {
		b.Imm(riscv.SLLI, riscv.T0, riscv.T0, k)
		b.Op(riscv.ADD, riscv.T0, riscv.T0, riscv.A1)
	}
	b.Imm(riscv.SLLI, riscv.T1, riscv.A0, 2)
	b.Imm(riscv.SLLI, riscv.T1, riscv.T1, 1)
	b.Op(riscv.ADD, riscv.T1, riscv.T1, riscv.A2)
	for k, sew := range []riscv.SEW{riscv.E64, riscv.E32} {
		vle, shift := riscv.VLE64V, int64(3)
		if sew == riscv.E32 {
			vle, shift = riscv.VLE32V, 2
		}
		vt := riscv.VType(sew)
		loop := fmt.Sprintf("vdot%d", k)
		b.I(riscv.Inst{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.Zero, Imm: vt})
		b.I(riscv.Inst{Op: riscv.VMVVI, Rd: 2, Imm: 0})
		b.Label(loop)
		b.I(riscv.Inst{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.A2, Imm: vt})
		b.I(riscv.Inst{Op: vle, Rd: 0, Rs1: riscv.A0})
		b.I(riscv.Inst{Op: vle, Rd: 1, Rs1: riscv.A1})
		b.I(riscv.Inst{Op: riscv.VFMACCVV, Rd: 2, Rs1: 0, Rs2: 1})
		b.Imm(riscv.SLLI, riscv.T1, riscv.T0, shift)
		b.Op(riscv.ADD, riscv.A0, riscv.A0, riscv.T1)
		b.Op(riscv.ADD, riscv.A1, riscv.A1, riscv.T1)
		b.Op(riscv.SUB, riscv.A2, riscv.A2, riscv.T0)
		b.Bne(riscv.A2, riscv.Zero, loop)
		b.I(riscv.Inst{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.Zero, Imm: vt})
		b.I(riscv.Inst{Op: riscv.VFMVVF, Rd: 1, Rs1: 10})
		b.I(riscv.Inst{Op: riscv.VFREDUSUMVS, Rd: 0, Rs1: 1, Rs2: 2})
		b.I(riscv.Inst{Op: riscv.VFMVFS, Rd: 10, Rs2: 0})
	}
	b.Ecall()
	img, err := b.Build("planted", "main")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// everyHalfword roots a traversal at every even address of every
// executable section, so overlapping decode paths (a 4-byte instruction
// and one starting inside it) all land in one disassembly.
func everyHalfword(img *obj.Image) []uint64 {
	var roots []uint64
	for _, s := range img.Sections {
		if s.Perm&obj.PermX == 0 {
			continue
		}
		for a := s.Addr; a < s.End(); a += 2 {
			roots = append(roots, a)
		}
	}
	return roots
}

// TestScanMatchesReference checks both one-pass matchers against the
// per-address reference scans: planted adjacent and chained idioms,
// scalar and vector workloads and fuzz-generated programs, each both
// plainly disassembled and rooted at every halfword.
func TestScanMatchesReference(t *testing.T) {
	type input struct {
		name string
		img  *obj.Image
	}
	var ins []input
	for _, compress := range []bool{false, true} {
		ins = append(ins, input{fmt.Sprintf("planted/c=%v", compress), plantedIdioms(t, compress)})
		for _, vector := range []bool{false, true} {
			img, err := workload.Matmul(6, vector, compress)
			if err != nil {
				t.Fatal(err)
			}
			ins = append(ins, input{fmt.Sprintf("matmul/v=%v/c=%v", vector, compress), img})
		}
	}
	for _, kind := range workload.BLASKinds {
		for _, vector := range []bool{false, true} {
			img, err := workload.BLAS(kind, 8, 0, 8, vector)
			if err != nil {
				t.Fatal(err)
			}
			ins = append(ins, input{fmt.Sprintf("blas/%s/v=%v", kind, vector), img})
		}
	}
	for _, c := range workload.SpecSuite()[:4] {
		p := c.Params
		p.CodeKB, p.Rounds = 16, 4
		for _, vector := range []bool{false, true} {
			img, err := workload.BuildSpec(p, vector)
			if err != nil {
				t.Fatal(err)
			}
			ins = append(ins, input{fmt.Sprintf("spec/%s/v=%v", p.Name, vector), img})
		}
	}
	for seed := int64(1); seed <= 24; seed++ {
		spec := fuzz.Generate(seed, fuzz.DefaultConfig())
		img, _, err := spec.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, input{fmt.Sprintf("fuzz/%d", seed), img})
	}

	found := map[string]int{}
	for _, in := range ins {
		for _, d := range []*dis.Result{dis.Disassemble(in.img), dis.DisassembleWithRoots(in.img, everyHalfword(in.img))} {
			for _, m := range []struct {
				name      string
				got, want func(*dis.Result) []translate.UpgradeSite
			}{
				{"upgrades", translate.MatchUpgrades, refMatchUpgrades},
				{"vector downgrades", translate.MatchVectorDowngrades, refMatchVectorDowngrades},
			} {
				got, want := m.got(d), m.want(d)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s over %d instructions: %d sites, want %d\ngot  %+v\nwant %+v",
						in.name, m.name, len(d.Order), len(got), len(want), got, want)
				}
				for _, s := range got {
					found[s.Kind]++
				}
			}
		}
	}
	// The inputs must exercise every idiom, or the comparison proves little.
	for _, kind := range []string{"dot.e64", "axpy.e64", "shadd", "vdot.e64.down", "vdot.e32.down"} {
		if found[kind] == 0 {
			t.Errorf("no input planted a %s site: %v", kind, found)
		}
	}
}
