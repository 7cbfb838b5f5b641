package translate

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

const (
	vregBase = uint64(0x80000)
	dataBase = uint64(0x90000)
)

// run executes a raw instruction sequence (terminated by an implicit ecall)
// on a hart with the given ISA, with the simulated vector state section and
// a data scratch page mapped.
func run(t *testing.T, isa riscv.Ext, insts []riscv.Inst, setup func(c *emu.CPU)) *emu.CPU {
	t.Helper()
	var text []byte
	for _, in := range insts {
		w, err := riscv.Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		text = binary.LittleEndian.AppendUint32(text, w)
	}
	text = binary.LittleEndian.AppendUint32(text, riscv.MustEncode(riscv.Inst{Op: riscv.ECALL}))

	mem := emu.NewMemory()
	mem.Map(obj.TextBase, uint64(len(text)), obj.PermRX)
	if fa, ok := mem.Write(obj.TextBase, nil); !ok {
		t.Fatal(fa)
	}
	// Loader-style write: map a writable alias via section mapping.
	sec := &obj.Section{Name: obj.SecText, Addr: obj.TextBase, Data: text, Perm: obj.PermRX}
	mem.MapSection(sec)
	mem.Map(vregBase, VRegFileSize, obj.PermRW)
	mem.Map(dataBase, obj.PageSize, obj.PermRW)
	mem.Map(obj.StackTop-obj.StackSize, obj.StackSize, obj.PermRW)

	cpu := emu.NewCPU(mem, isa)
	cpu.PC = obj.TextBase
	cpu.X[riscv.SP] = obj.StackTop
	if setup != nil {
		setup(cpu)
	}
	stop := cpu.Run(3_000_000)
	if stop.Kind != emu.StopEcall {
		t.Fatalf("sequence did not complete: %+v (pc=%#x last=%v)", stop, cpu.PC, cpu.LastInst)
	}
	return cpu
}

func TestDowngradeShadd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []riscv.Inst{
		{Op: riscv.SH1ADD, Rd: riscv.A0, Rs1: riscv.A1, Rs2: riscv.A2},
		{Op: riscv.SH2ADD, Rd: riscv.A0, Rs1: riscv.A1, Rs2: riscv.A2},
		{Op: riscv.SH3ADD, Rd: riscv.A0, Rs1: riscv.A1, Rs2: riscv.A2},
		// rd aliases rs2: needs the scratch-register spill path.
		{Op: riscv.SH1ADD, Rd: riscv.A2, Rs1: riscv.A1, Rs2: riscv.A2},
		{Op: riscv.SH3ADD, Rd: riscv.A1, Rs1: riscv.A1, Rs2: riscv.A2},
	}
	ctx := &Context{VRegBase: vregBase}
	for _, src := range cases {
		seq, err := Downgrade(src, riscv.E64, ctx)
		if err != nil {
			t.Fatalf("Downgrade(%v): %v", src, err)
		}
		for trial := 0; trial < 20; trial++ {
			a1, a2 := rng.Uint64(), rng.Uint64()
			set := func(c *emu.CPU) { c.X[riscv.A1], c.X[riscv.A2] = a1, a2 }
			ref := run(t, riscv.RV64GCV|riscv.ExtB, []riscv.Inst{src}, set)
			got := run(t, riscv.RV64GC, seq, set)
			for r := riscv.Reg(1); r < 32; r++ {
				if r == riscv.SP {
					continue
				}
				if ref.X[r] != got.X[r] {
					t.Fatalf("%v: register %s differs: ref=%#x got=%#x", src, r.Name(), ref.X[r], got.X[r])
				}
			}
		}
	}
}

func TestDowngradeZbbLogic(t *testing.T) {
	ctx := &Context{VRegBase: vregBase}
	for _, op := range []riscv.Op{riscv.ANDN, riscv.ORN, riscv.XNOR} {
		src := riscv.Inst{Op: op, Rd: riscv.A0, Rs1: riscv.A1, Rs2: riscv.A2}
		seq, err := Downgrade(src, riscv.E64, ctx)
		if err != nil {
			t.Fatal(err)
		}
		set := func(c *emu.CPU) { c.X[riscv.A1], c.X[riscv.A2] = 0xF0F0, 0xFF00 }
		ref := run(t, riscv.RV64GCV|riscv.ExtB, []riscv.Inst{src}, set)
		got := run(t, riscv.RV64GC, seq, set)
		if ref.X[riscv.A0] != got.X[riscv.A0] {
			t.Errorf("%v: ref=%#x got=%#x", op.Mnemonic(), ref.X[riscv.A0], got.X[riscv.A0])
		}
	}
}

// vectorProgram is a small vector pipeline: configure, load two arrays,
// fmacc them into an accumulator, reduce, and store both the element-wise
// result and the scalar sum.
func vectorProgram(n int64) []riscv.Inst {
	vt := riscv.VType(riscv.E64)
	return []riscv.Inst{
		{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.A3, Imm: vt},
		{Op: riscv.VLE64V, Rd: 4, Rs1: riscv.A0},
		{Op: riscv.VLE64V, Rd: 5, Rs1: riscv.A1},
		{Op: riscv.VMVVI, Rd: 6, Imm: 0},
		{Op: riscv.VFMACCVV, Rd: 6, Rs1: 4, Rs2: 5},
		{Op: riscv.VFADDVV, Rd: 7, Rs1: 4, Rs2: 5},
		{Op: riscv.VSE64V, Rd: 7, Rs1: riscv.A2},
		{Op: riscv.VMVVI, Rd: 8, Imm: 0},
		{Op: riscv.VFREDUSUMVS, Rd: 9, Rs1: 8, Rs2: 6},
		{Op: riscv.VFMVFS, Rd: 1, Rs2: 9},
	}
}

func downgradeAll(t *testing.T, insts []riscv.Inst) []riscv.Inst {
	t.Helper()
	ctx := &Context{VRegBase: vregBase}
	var out []riscv.Inst
	for _, in := range insts {
		if in.IsVector() {
			seq, err := Downgrade(in, riscv.E64, ctx)
			if err != nil {
				t.Fatalf("Downgrade(%v): %v", in, err)
			}
			out = append(out, seq...)
			continue
		}
		out = append(out, in)
	}
	return out
}

func TestDowngradeVectorPipeline(t *testing.T) {
	for _, n := range []int64{1, 3, 4} { // vlmax for e64 is 4
		prog := vectorProgram(n)
		down := downgradeAll(t, prog)

		setup := func(c *emu.CPU) {
			for i := int64(0); i < n; i++ {
				c.Mem.WriteUint64(dataBase+uint64(i*8), math.Float64bits(float64(i+1)))
				c.Mem.WriteUint64(dataBase+256+uint64(i*8), math.Float64bits(float64(2*i+1)))
			}
			c.X[riscv.A0] = dataBase
			c.X[riscv.A1] = dataBase + 256
			c.X[riscv.A2] = dataBase + 512
			c.X[riscv.A3] = uint64(n)
		}
		ref := run(t, riscv.RV64GCV, prog, setup)
		got := run(t, riscv.RV64GC, down, setup)

		for i := int64(0); i < n; i++ {
			rb, _ := ref.Mem.ReadUint64(dataBase + 512 + uint64(i*8))
			gb, _ := got.Mem.ReadUint64(dataBase + 512 + uint64(i*8))
			if rb != gb {
				t.Errorf("n=%d elem %d: ref=%v got=%v", n, i,
					math.Float64frombits(rb), math.Float64frombits(gb))
			}
		}
		if ref.F[1] != got.F[1] {
			t.Errorf("n=%d reduction: ref=%v got=%v", n,
				math.Float64frombits(ref.F[1]), math.Float64frombits(got.F[1]))
		}
		// The downgrade must not perturb any program-visible integer state
		// except what the source instructions define (t0 from vsetvli).
		for r := riscv.Reg(1); r < 32; r++ {
			if r == riscv.SP {
				continue
			}
			if ref.X[r] != got.X[r] {
				t.Errorf("n=%d: register %s differs: ref=%#x got=%#x", n, r.Name(), ref.X[r], got.X[r])
			}
		}
	}
}

// TestDowngradeVfredusumShortVL runs vfredusum.vs on rv64gcv and its
// downgrade on rv64gc at vl 0 and vl 1 and compares every element of vd
// bit for bit, stored at vl 4 after the reduction. At vl 0 RVV leaves vd
// unchanged, so the downgrade must not write vs1[0] into it.
func TestDowngradeVfredusumShortVL(t *testing.T) {
	vt := riscv.VType(riscv.E64)
	prog := []riscv.Inst{
		{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.A4, Imm: vt},
		{Op: riscv.VLE64V, Rd: 8, Rs1: riscv.A0},
		{Op: riscv.VLE64V, Rd: 6, Rs1: riscv.A1},
		{Op: riscv.VLE64V, Rd: 9, Rs1: riscv.A2},
		{Op: riscv.VSETVLI, Rd: riscv.T1, Rs1: riscv.A3, Imm: vt},
		{Op: riscv.VFREDUSUMVS, Rd: 9, Rs1: 8, Rs2: 6},
		{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.A4, Imm: vt},
		{Op: riscv.VSE64V, Rd: 9, Rs1: riscv.A5},
	}
	down := downgradeAll(t, prog)
	vs1 := []float64{1.5, -2, 3, -4}
	vs2 := []float64{0.25, 5, 6, 7}
	vd := []float64{7, 8, 9, 10}
	for _, tc := range []struct {
		vl    uint64
		wantD float64
	}{{0, 7}, {1, 1.75}} {
		setup := func(c *emu.CPU) {
			for i := range 4 {
				c.Mem.WriteUint64(dataBase+uint64(i*8), math.Float64bits(vs1[i]))
				c.Mem.WriteUint64(dataBase+0x100+uint64(i*8), math.Float64bits(vs2[i]))
				c.Mem.WriteUint64(dataBase+0x200+uint64(i*8), math.Float64bits(vd[i]))
			}
			c.X[riscv.A0] = dataBase
			c.X[riscv.A1] = dataBase + 0x100
			c.X[riscv.A2] = dataBase + 0x200
			c.X[riscv.A5] = dataBase + 0x300
			c.X[riscv.A3] = tc.vl
			c.X[riscv.A4] = 4
		}
		ref := run(t, riscv.RV64GCV, prog, setup)
		got := run(t, riscv.RV64GC, down, setup)
		for i := uint64(0); i < 4; i++ {
			rv, _ := ref.Mem.ReadUint64(dataBase + 0x300 + i*8)
			gv, _ := got.Mem.ReadUint64(dataBase + 0x300 + i*8)
			if rv != gv {
				t.Errorf("vl %d: vd[%d] rv64gcv %#x, downgraded %#x", tc.vl, i, rv, gv)
			}
		}
		if rv, _ := ref.Mem.ReadUint64(dataBase + 0x300); math.Float64frombits(rv) != tc.wantD {
			t.Errorf("vl %d: rv64gcv vd[0] = %v, want %v", tc.vl, math.Float64frombits(rv), tc.wantD)
		}
		for r := riscv.Reg(1); r < 32; r++ {
			if r != riscv.SP && ref.X[r] != got.X[r] {
				t.Errorf("vl %d: register %s differs: ref=%#x got=%#x", tc.vl, r.Name(), ref.X[r], got.X[r])
			}
		}
	}
}

func TestDowngradeIntegerVector(t *testing.T) {
	vt := riscv.VType(riscv.E64)
	prog := []riscv.Inst{
		{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.A3, Imm: vt},
		{Op: riscv.VLE64V, Rd: 1, Rs1: riscv.A0},
		{Op: riscv.VMVVX, Rd: 2, Rs1: riscv.A4},
		{Op: riscv.VADDVV, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: riscv.VMULVV, Rd: 3, Rs1: 3, Rs2: 1},
		{Op: riscv.VADDVX, Rd: 3, Rs1: riscv.A5, Rs2: 3},
		{Op: riscv.VSE64V, Rd: 3, Rs1: riscv.A1},
	}
	down := downgradeAll(t, prog)
	setup := func(c *emu.CPU) {
		for i := 0; i < 4; i++ {
			c.Mem.WriteUint64(dataBase+uint64(i*8), uint64(i+3))
		}
		c.X[riscv.A0] = dataBase
		c.X[riscv.A1] = dataBase + 128
		c.X[riscv.A3] = 4
		c.X[riscv.A4] = 100
		c.X[riscv.A5] = 7
	}
	ref := run(t, riscv.RV64GCV, prog, setup)
	got := run(t, riscv.RV64GC, down, setup)
	for i := 0; i < 4; i++ {
		rv, _ := ref.Mem.ReadUint64(dataBase + 128 + uint64(i*8))
		gv, _ := got.Mem.ReadUint64(dataBase + 128 + uint64(i*8))
		if rv != gv {
			t.Errorf("elem %d: ref=%d got=%d", i, rv, gv)
		}
		// Reference check: ((x+100)*x)+7
		x := uint64(i + 3)
		if want := (x+100)*x + 7; rv != want {
			t.Errorf("elem %d: emulator disagrees with formula: %d vs %d", i, rv, want)
		}
	}
}

// TestDowngradeVsetvliKeepsVL checks vsetvli x0, x0, vtype: it keeps the
// current vl (clamped to the new VLMAX, a reserved use), on the emulator
// and in the downgraded sequence alike. The copy moves vl elements.
func TestDowngradeVsetvliKeepsVL(t *testing.T) {
	prog := []riscv.Inst{
		{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.A3, Imm: riscv.VType(riscv.E32)},
		{Op: riscv.VSETVLI, Rd: riscv.Zero, Rs1: riscv.Zero, Imm: riscv.VType(riscv.E64)},
		{Op: riscv.VLE64V, Rd: 1, Rs1: riscv.A0},
		{Op: riscv.VSE64V, Rd: 1, Rs1: riscv.A1},
	}
	down := downgradeAll(t, prog)
	for _, tc := range []struct{ avl, want uint64 }{{3, 3}, {7, 4}} {
		setup := func(c *emu.CPU) {
			for i := uint64(0); i < 8; i++ {
				c.Mem.WriteUint64(dataBase+i*8, i+1)
			}
			c.X[riscv.A0] = dataBase
			c.X[riscv.A1] = dataBase + 128
			c.X[riscv.A3] = tc.avl
		}
		ref := run(t, riscv.RV64GCV, prog, setup)
		got := run(t, riscv.RV64GC, down, setup)
		if ref.VL != tc.want {
			t.Errorf("avl %d: emulator vl %d, want %d", tc.avl, ref.VL, tc.want)
		}
		for i := uint64(0); i < 8; i++ {
			rv, _ := ref.Mem.ReadUint64(dataBase + 128 + i*8)
			gv, _ := got.Mem.ReadUint64(dataBase + 128 + i*8)
			want := uint64(0)
			if i < tc.want {
				want = i + 1
			}
			if rv != want || gv != want {
				t.Errorf("avl %d elem %d: emulator %d, downgraded %d, want %d", tc.avl, i, rv, gv, want)
			}
		}
	}
}

func TestDowngradeRejectsUnknown(t *testing.T) {
	ctx := &Context{VRegBase: vregBase}
	if _, err := Downgrade(riscv.Inst{Op: riscv.ADD}, riscv.E64, ctx); err == nil {
		t.Error("plain base instruction downgraded")
	}
	if _, err := Downgrade(riscv.Inst{Op: riscv.VADDVV}, riscv.E64, nil); err == nil {
		t.Error("nil context accepted")
	}
	if _, err := Downgrade(riscv.Inst{Op: riscv.VADDVV}, riscv.E8, ctx); err == nil {
		t.Error("unsupported SEW accepted")
	}
}

// buildDotLoop emits the canonical scalar dot-product loop the upgrade
// matcher recognizes.
func buildDotLoop(b *asm.Builder) {
	b.Label("dotloop")
	b.Load(riscv.FLD, 0, riscv.A0, 0)
	b.Load(riscv.FLD, 1, riscv.A1, 0)
	b.I(riscv.Inst{Op: riscv.FMADDD, Rd: 10, Rs1: 0, Rs2: 1, Rs3: 10})
	b.Imm(riscv.ADDI, riscv.A0, riscv.A0, 8)
	b.Imm(riscv.ADDI, riscv.A1, riscv.A1, 8)
	b.Imm(riscv.ADDI, riscv.A2, riscv.A2, -1)
	b.Bne(riscv.A2, riscv.Zero, "dotloop")
}

func TestMatchUpgradeDot(t *testing.T) {
	b := asm.NewBuilder(riscv.RV64GC)
	b.Func("main")
	buildDotLoop(b)
	b.Ecall()
	img, err := b.Build("t", "main")
	if err != nil {
		t.Fatal(err)
	}
	sites := MatchUpgrades(dis.Disassemble(img))
	if len(sites) != 1 || sites[0].Kind != "dot.e64" {
		t.Fatalf("sites = %+v", sites)
	}
	if len(sites[0].Addrs) != 7 {
		t.Errorf("matched %d instructions, want 7", len(sites[0].Addrs))
	}

	// Execute the replacement and the original on the same input; the dot
	// products must agree (element order differs, but these values are exact
	// in binary floating point).
	n := int64(11) // exercises the tail (vlmax=4)
	setup := func(c *emu.CPU) {
		for i := int64(0); i < n; i++ {
			c.Mem.WriteUint64(dataBase+uint64(i*8), math.Float64bits(float64(i+1)))
			c.Mem.WriteUint64(dataBase+256+uint64(i*8), math.Float64bits(float64(i%5)))
		}
		c.X[riscv.A0] = dataBase
		c.X[riscv.A1] = dataBase + 256
		c.X[riscv.A2] = uint64(n)
	}
	var scalar []riscv.Inst
	{
		// Reconstruct the scalar loop as raw instructions for the run harness.
		d := dis.Disassemble(img)
		for _, a := range sites[0].Addrs {
			in, _ := d.At(a)
			scalar = append(scalar, in)
		}
		// Fix the branch target: in the harness the loop starts at offset 0.
		scalar[6].Imm = -24
	}
	ref := run(t, riscv.RV64GC, scalar, setup)
	got := run(t, riscv.RV64GCV, sites[0].Replacement, setup)
	refDot := math.Float64frombits(ref.F[10])
	gotDot := math.Float64frombits(got.F[10])
	if refDot != gotDot {
		t.Errorf("dot: scalar=%v vector=%v", refDot, gotDot)
	}
	// Pointer/counter exit state must match.
	if ref.X[riscv.A0] != got.X[riscv.A0] || ref.X[riscv.A2] != got.X[riscv.A2] {
		t.Errorf("exit registers differ: a0 %#x/%#x a2 %d/%d",
			ref.X[riscv.A0], got.X[riscv.A0], ref.X[riscv.A2], got.X[riscv.A2])
	}
	// And the vector version must retire far fewer instructions.
	if got.Instret >= ref.Instret {
		t.Errorf("vector used %d instructions vs scalar %d", got.Instret, ref.Instret)
	}
}

func TestMatchUpgradeAxpy(t *testing.T) {
	b := asm.NewBuilder(riscv.RV64GC)
	b.Func("main")
	b.Label("loop")
	b.Load(riscv.FLD, 0, riscv.A0, 0)
	b.Load(riscv.FLD, 1, riscv.A1, 0)
	b.I(riscv.Inst{Op: riscv.FMADDD, Rd: 1, Rs1: 0, Rs2: 10, Rs3: 1})
	b.Store(riscv.FSD, 1, riscv.A1, 0)
	b.Imm(riscv.ADDI, riscv.A0, riscv.A0, 8)
	b.Imm(riscv.ADDI, riscv.A1, riscv.A1, 8)
	b.Imm(riscv.ADDI, riscv.A2, riscv.A2, -1)
	b.Bne(riscv.A2, riscv.Zero, "loop")
	b.Ecall()
	img, err := b.Build("t", "main")
	if err != nil {
		t.Fatal(err)
	}
	sites := MatchUpgrades(dis.Disassemble(img))
	if len(sites) != 1 || sites[0].Kind != "axpy.e64" {
		t.Fatalf("sites = %+v", sites)
	}

	n := int64(10)
	setup := func(c *emu.CPU) {
		for i := int64(0); i < n; i++ {
			c.Mem.WriteUint64(dataBase+uint64(i*8), math.Float64bits(float64(i)))
			c.Mem.WriteUint64(dataBase+256+uint64(i*8), math.Float64bits(float64(100-i)))
		}
		c.X[riscv.A0] = dataBase
		c.X[riscv.A1] = dataBase + 256
		c.X[riscv.A2] = uint64(n)
		c.F[10] = math.Float64bits(2.5)
	}
	d := dis.Disassemble(img)
	var scalar []riscv.Inst
	for _, a := range sites[0].Addrs {
		in, _ := d.At(a)
		scalar = append(scalar, in)
	}
	scalar[7].Imm = -28
	ref := run(t, riscv.RV64GC, scalar, setup)
	got := run(t, riscv.RV64GCV, sites[0].Replacement, setup)
	for i := int64(0); i < n; i++ {
		rv, _ := ref.Mem.ReadUint64(dataBase + 256 + uint64(i*8))
		gv, _ := got.Mem.ReadUint64(dataBase + 256 + uint64(i*8))
		if rv != gv {
			t.Errorf("y[%d]: scalar=%v vector=%v", i,
				math.Float64frombits(rv), math.Float64frombits(gv))
		}
	}
}

func TestMatchUpgradeShadd(t *testing.T) {
	b := asm.NewBuilder(riscv.RV64GC)
	b.Func("main")
	b.Imm(riscv.SLLI, riscv.T0, riscv.A0, 2)
	b.Op(riscv.ADD, riscv.T0, riscv.T0, riscv.A1)
	b.Ecall()
	img, err := b.Build("t", "main")
	if err != nil {
		t.Fatal(err)
	}
	sites := MatchUpgrades(dis.Disassemble(img))
	if len(sites) != 1 || sites[0].Kind != "shadd" {
		t.Fatalf("sites = %+v", sites)
	}
	set := func(c *emu.CPU) { c.X[riscv.A0], c.X[riscv.A1] = 9, 1000 }
	got := run(t, riscv.RV64GCV|riscv.ExtB, sites[0].Replacement, set)
	if got.X[riscv.T0] != 9*4+1000 {
		t.Errorf("sh2add = %d", got.X[riscv.T0])
	}
}
