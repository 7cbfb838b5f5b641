package emu_test

import (
	"strings"
	"testing"

	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/instrument"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/telemetry"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// TestGuestProfilerMatmul runs the matmul workload with the profiler on, on
// the default (trace) tier, and asserts the hot block — the dot-product
// inner loop — is ranked first and symbolizes into main, and that the
// profiler's accounting exactly matches the block engine's.
func TestGuestProfilerMatmul(t *testing.T) {
	const n = 16
	img, err := workload.Matmul(n, false, true)
	if err != nil {
		t.Fatal(err)
	}
	mem := emu.NewMemory()
	mem.MapImage(img)
	cpu := emu.NewCPU(mem, riscv.RV64GC)
	cpu.Reset(img)
	prof := instrument.NewProfile()
	cpu.SetHooks(&instrument.Hooks{Prof: prof})
	for {
		stop := cpu.Run(50_000_000)
		if stop.Kind == emu.StopEcall {
			break
		}
		if stop.Kind != emu.StopLimit {
			t.Fatalf("unexpected stop: %+v", stop)
		}
	}

	// Conservation: every block-retired instruction and every cycle must be
	// attributed to exactly one sampled block.
	if cpu.Blocks.TraceHits == 0 {
		t.Fatal("trace tier not exercised")
	}
	cycles, instret := prof.Totals()
	if instret != cpu.Blocks.Retired {
		t.Errorf("profiler instret %d != block-engine retired %d", instret, cpu.Blocks.Retired)
	}
	if cycles != cpu.Cycles {
		t.Errorf("profiler cycles %d != cpu cycles %d", cycles, cpu.Cycles)
	}

	st := telemetry.SymTableOf(img)
	if st == nil {
		t.Fatal("matmul image has no function symbols")
	}
	samples := prof.Samples()
	rep := telemetry.Report(samples, st, 5)
	if len(rep) == 0 {
		t.Fatal("empty profile report")
	}
	hot := rep[0]
	if hot.Rank != 1 {
		t.Errorf("hot rank = %d", hot.Rank)
	}
	// The workload's only function symbol is main; the dot loop is a body
	// block, so it must symbolize to a main-relative offset.
	if !strings.HasPrefix(hot.Location, "main+0x") {
		t.Errorf("hot block location = %q, want main+0x...", hot.Location)
	}
	// The dot-product inner loop body runs ~n^3 times (its last iteration
	// per (i,j) pair exits through a different block) — it must dominate.
	if hot.Dispatches < n*n*(n-1) {
		t.Errorf("hot block dispatches = %d, want >= %d", hot.Dispatches, n*n*(n-1))
	}
	if hot.CyclePct < 30 {
		t.Errorf("hot block cycle share = %.1f%%, want the dominant block", hot.CyclePct)
	}

	// Folded-stack output: one line per block, root prefix, hot line present.
	lines := telemetry.Folded("matmul", samples, st)
	if len(lines) != prof.Blocks() {
		t.Errorf("folded lines = %d, blocks = %d", len(lines), prof.Blocks())
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "matmul;") {
			t.Errorf("folded line %q missing root", l)
		}
	}
}

// TestProfilerOffUnchanged checks a profiler-off run is architecturally
// identical to a profiler-on run (the hook only observes).
func TestProfilerOffUnchanged(t *testing.T) {
	img, err := workload.Matmul(8, false, true)
	if err != nil {
		t.Fatal(err)
	}
	run := func(prof bool) (uint64, uint64, uint64) {
		mem := emu.NewMemory()
		mem.MapImage(img)
		cpu := emu.NewCPU(mem, riscv.RV64GC)
		cpu.Reset(img)
		if prof {
			cpu.SetHooks(&instrument.Hooks{Prof: instrument.NewProfile()})
		}
		stop := cpu.Run(50_000_000)
		if stop.Kind != emu.StopEcall {
			t.Fatalf("unexpected stop: %+v", stop)
		}
		return cpu.Instret, cpu.Cycles, cpu.PC
	}
	i1, c1, p1 := run(false)
	i2, c2, p2 := run(true)
	if i1 != i2 || c1 != c2 || p1 != p2 {
		t.Errorf("profiler changed execution: (%d,%d,%#x) vs (%d,%d,%#x)", i1, c1, p1, i2, c2, p2)
	}
}
