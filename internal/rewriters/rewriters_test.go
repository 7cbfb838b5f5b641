package rewriters

import (
	"context"
	"errors"
	"testing"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// buildProgram assembles a program with a function call, a loop, an
// indirect jump through a function pointer, and vector work — the control
// flow shapes the baselines must survive.
func buildProgram(t *testing.T, compress bool) *obj.Image {
	t.Helper()
	isa := riscv.RV64G | riscv.ExtV
	if compress {
		isa = riscv.RV64GCV
	}
	b := asm.NewBuilder(isa)
	b.Compress = compress
	b.DataF64("vecA", []float64{1, 2, 3, 4})
	b.Zero("out", 64)

	b.Func("main")
	b.Li(riscv.S2, 0)
	b.Li(riscv.S4, 3) // loop bound
	b.Li(riscv.S5, 0)
	b.Label("loop")
	b.Call("work")
	b.Op(riscv.ADD, riscv.S2, riscv.S2, riscv.A0)
	b.Imm(riscv.ADDI, riscv.S5, riscv.S5, 1)
	b.Blt(riscv.S5, riscv.S4, "loop")
	// Indirect calls through a function pointer: these land on original
	// addresses, the case that separates the baselines.
	b.La(riscv.S6, "work")
	b.Li(riscv.S5, 0)
	b.Li(riscv.S4, 20)
	b.Label("iloop")
	b.I(riscv.Inst{Op: riscv.JALR, Rd: riscv.RA, Rs1: riscv.S6})
	b.Op(riscv.ADD, riscv.S2, riscv.S2, riscv.A0)
	b.Imm(riscv.ADDI, riscv.S5, riscv.S5, 1)
	b.Blt(riscv.S5, riscv.S4, "iloop")
	b.Mv(riscv.A0, riscv.S2)
	b.Li(riscv.A7, kernel.SysExit)
	b.Ecall()

	// Inflate the code section past jal's ±1MB reach, like the >1MB SPEC
	// binaries §6.2 selects; the sled is never executed.
	for i := 0; i < 300_000; i++ {
		b.Nop()
	}

	b.Func("work")
	b.La(riscv.A1, "vecA")
	b.La(riscv.A2, "out")
	b.Li(riscv.A3, 4)
	b.I(riscv.Inst{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.A3, Imm: riscv.VType(riscv.E64)})
	b.I(riscv.Inst{Op: riscv.VLE64V, Rd: 1, Rs1: riscv.A1})
	b.I(riscv.Inst{Op: riscv.VFADDVV, Rd: 2, Rs1: 1, Rs2: 1})
	b.I(riscv.Inst{Op: riscv.VSE64V, Rd: 2, Rs1: riscv.A2})
	b.Load(riscv.LD, riscv.A0, riscv.A2, 8) // 2*2.0 as float bits... use int view
	b.I(riscv.Inst{Op: riscv.FMVDX, Rd: 1, Rs1: riscv.A0})
	b.I(riscv.Inst{Op: riscv.FCVTLD, Rd: riscv.A0, Rs1: 1})
	b.Ret()

	img, err := b.Build("baselinetest", "main")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// run executes a rewritten image under the kernel, which reads the
// method's runtime assists (trap tables, Safer's address map and pointer
// check) from the image, on a core of the given ISA. It returns the
// process and its total cycles, kernel charges included.
func run(t *testing.T, rw *Output, isa riscv.Ext) (*kernel.Process, uint64) {
	t.Helper()
	p, err := kernel.NewProcess(rw.Image.Name, []kernel.Variant{{ISA: rw.Image.ISA, Image: rw.Image}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MigrateTo(isa); err != nil {
		t.Fatal(err)
	}
	cycles, st, err := p.RunToExit(context.Background(), 5_000_000)
	if err != nil || st != kernel.StatusExited || p.Signal != 0 {
		t.Fatalf("%s: status %v, signal %d, err %v (pc=%#x)", rw.Image.Name, st, p.Signal, err, p.CPU.PC)
	}
	return p, cycles
}

// rewrite runs one registry config and fails the test on error.
func rewrite(t *testing.T, img *obj.Image, method string, target riscv.Ext, emptyPatch bool) *Output {
	t.Helper()
	out, err := Rewrite(img, Config{Method: method, Target: target, EmptyPatch: emptyPatch})
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	return out
}

func reference(t *testing.T, img *obj.Image) int64 {
	t.Helper()
	mem := emu.NewMemory()
	mem.MapImage(img)
	cpu := emu.NewCPU(mem, riscv.RV64GCV)
	cpu.Reset(img)
	stop := cpu.Run(10_000_000)
	if stop.Kind != emu.StopEcall {
		t.Fatalf("reference stop %+v", stop)
	}
	return int64(cpu.X[riscv.A0])
}

func TestARMoreDowngrade(t *testing.T) {
	for _, compress := range []bool{false, true} {
		img := buildProgram(t, compress)
		want := reference(t, img)
		rw := rewrite(t, img, "armore", riscv.RV64GC, false)
		p, _ := run(t, rw, riscv.RV64GC)
		if got := int64(p.CPU.X[riscv.A0]); got != want {
			t.Errorf("compress=%v: result %d, want %d", compress, got, want)
		}
		// The indirect call lands on an original-text trampoline.
		if rw.Stats.Trampolines == 0 {
			t.Error("no trampolines placed")
		}
	}
}

func TestARMoreTrapsOnCompressedSlots(t *testing.T) {
	img := buildProgram(t, true)
	rw := rewrite(t, img, "armore", riscv.RV64GC, false)
	if rw.Stats.TrapTrampolines == 0 {
		t.Error("compressed binary produced no trap trampolines; 2-byte slots cannot hold jal")
	}
}

func TestSaferDowngrade(t *testing.T) {
	for _, compress := range []bool{false, true} {
		img := buildProgram(t, compress)
		want := reference(t, img)
		rw := rewrite(t, img, "safer", riscv.RV64GC, false)
		p, _ := run(t, rw, riscv.RV64GC)
		if got := int64(p.CPU.X[riscv.A0]); got != want {
			t.Errorf("compress=%v: result %d, want %d", compress, got, want)
		}
		if p.Counters.Checks == 0 {
			t.Error("Safer executed no pointer checks")
		}
	}
}

func TestSaferDropsOriginalText(t *testing.T) {
	img := buildProgram(t, false)
	rw := rewrite(t, img, "safer", riscv.RV64GC, false)
	if s := rw.Image.Section(obj.SecText); s == nil || s.Perm&obj.PermX != 0 {
		t.Error("regeneration left the original text executable")
	}
}

func TestStrawmanAndCHBPRegistry(t *testing.T) {
	img := buildProgram(t, true)
	sm := rewrite(t, img, "strawman", riscv.RV64GC, false)
	if sm.Stats.TrapEntries == 0 {
		t.Error("strawman placed no trap entries")
	}
	ch := rewrite(t, img, "chbp", riscv.RV64GC, false)
	if ch.Stats.SmileEntries == 0 {
		t.Error("CHBP placed no SMILE entries")
	}
}

func TestEmptyPatchBaselines(t *testing.T) {
	img := buildProgram(t, true)
	want := reference(t, img)
	ar := rewrite(t, img, "armore", riscv.RV64GCV, true)
	p, _ := run(t, ar, riscv.RV64GCV)
	if got := int64(p.CPU.X[riscv.A0]); got != want {
		t.Errorf("armore empty-patch result %d, want %d", got, want)
	}
	sf := rewrite(t, img, "safer", riscv.RV64GCV, true)
	p, _ = run(t, sf, riscv.RV64GCV)
	if got := int64(p.CPU.X[riscv.A0]); got != want {
		t.Errorf("safer empty-patch result %d, want %d", got, want)
	}
}

func TestCostOrdering(t *testing.T) {
	// On the same workload, the paper's ordering must emerge: CHBP cheapest,
	// then Safer, then ARMore (trap-heavy on compressed RISC-V binaries).
	img := buildProgram(t, true)

	_, chCycles := run(t, rewrite(t, img, "chbp", riscv.RV64GCV, true), riscv.RV64GCV)
	_, sfCycles := run(t, rewrite(t, img, "safer", riscv.RV64GCV, true), riscv.RV64GCV)
	ar, arCycles := run(t, rewrite(t, img, "armore", riscv.RV64GCV, true), riscv.RV64GCV)

	if !(chCycles < sfCycles) {
		t.Errorf("CHBP (%d) not cheaper than Safer (%d)", chCycles, sfCycles)
	}
	if !(sfCycles < arCycles) {
		t.Errorf("Safer (%d) not cheaper than ARMore (%d, %d traps)", sfCycles, arCycles, ar.Counters.Traps)
	}
}

// TestRegistryConfig pins the registry's contract: one unknown-method
// error, canonical configs that drop options a method ignores, and each
// method's runtime metadata embedded in its image.
func TestRegistryConfig(t *testing.T) {
	for _, m := range Methods {
		if err := CheckMethod(m); err != nil {
			t.Errorf("CheckMethod(%q) = %v", m, err)
		}
	}
	const want = `unknown method "nope" (want one of [strawman safer armore chbp])`
	if _, err := Rewrite(raceImage(t), Config{Method: "nope", Target: riscv.RV64GC}); err == nil ||
		err.Error() != want || errors.Is(err, ErrRewriteReject) {
		t.Errorf("unknown method: got %v, want plain %q", err, want)
	}

	flags := Config{DisableExitShift: true, DisableBatching: true, DisableUpgrade: true, Resolve: true, EmptyPatch: true}
	for _, m := range Methods {
		c := flags
		c.Method = m
		got := c.Canonical()
		ignores := m == "safer" || m == "armore"
		if kept := got.DisableExitShift || got.DisableBatching || got.DisableUpgrade; kept == ignores {
			t.Errorf("%s: Canonical() = %+v", m, got)
		}
		if !got.Resolve || !got.EmptyPatch || got.Method != m {
			t.Errorf("%s: Canonical() dropped an option the method reads: %+v", m, got)
		}
	}

	img := raceImage(t)
	for _, m := range Methods {
		out, err := Rewrite(img, Config{Method: m, Target: riscv.RV64GC, Resolve: true})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		tabs, err := chbp.TablesOf(out.Image)
		if err != nil || tabs == nil {
			t.Fatalf("%s: embedded tables: %v, %v", m, tabs, err)
		}
		regenerated := m == "safer" || m == "armore"
		if (tabs.AddrMap != nil) != regenerated {
			t.Errorf("%s: AddrMap set = %t, want %t", m, tabs.AddrMap != nil, regenerated)
		}
		wantEncoded := 0
		if m == "safer" {
			wantEncoded = out.Stats.ResolvedTargets
		}
		if tabs.CheckIndirect != (m == "safer") || len(tabs.Encoded) != wantEncoded {
			t.Errorf("%s: CheckIndirect %t, %d encoded targets, want %d", m, tabs.CheckIndirect, len(tabs.Encoded), wantEncoded)
		}
		if out.Stats.Resolve == nil {
			t.Errorf("%s: resolver summary missing from stats", m)
		}
	}
}
