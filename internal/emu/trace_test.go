package emu

import (
	"testing"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// hotCPU builds a CPU over text with an aggressive promotion threshold so
// tests exercise the trace tier without long warmups.
func hotCPU(t *testing.T, text []byte) *CPU {
	t.Helper()
	cpu := codeCPU(t, text)
	cpu.TraceThreshold = 2
	return cpu
}

// sameState requires bit-identical architectural state between two harts.
func sameState(t *testing.T, tag string, a, b *CPU) {
	t.Helper()
	if a.PC != b.PC || a.Instret != b.Instret || a.Cycles != b.Cycles {
		t.Fatalf("%s: PC %#x/%#x Instret %d/%d Cycles %d/%d",
			tag, a.PC, b.PC, a.Instret, b.Instret, a.Cycles, b.Cycles)
	}
	if a.X != b.X {
		t.Fatalf("%s: integer register files diverge", tag)
	}
	if a.F != b.F {
		t.Fatalf("%s: FP register files diverge", tag)
	}
}

// TestTraceCountersShape checks the shape the trace tier gives the service
// counters on a hot loop: traces are built and hit, trace-retired
// instructions are accounted, and Retired still equals Instret exactly.
func TestTraceCountersShape(t *testing.T) {
	cpu := hotCPU(t, enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A1, Rs1: riscv.A1, Imm: 2},
		riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: -8},
	))
	if stop := cpu.Run(600); stop.Kind != StopLimit {
		t.Fatalf("stop: %+v", stop)
	}
	s := cpu.Blocks
	if s.TracesBuilt == 0 || s.TraceHits == 0 || s.TraceRetired == 0 {
		t.Fatalf("trace tier not exercised: %+v", s)
	}
	if s.Retired != cpu.Instret {
		t.Errorf("Retired=%d, Instret=%d", s.Retired, cpu.Instret)
	}
	if s.TraceRetired > s.Retired {
		t.Errorf("TraceRetired=%d exceeds Retired=%d", s.TraceRetired, s.Retired)
	}
	// A self-loop unrolls to maxTraceBlocks copies, so a trace dispatch
	// retires far more than the 3-instruction block tier would.
	if r := s.RetiredPerDispatch(); r < 4 {
		t.Errorf("RetiredPerDispatch=%.2f, want unrolled (>4): %+v", r, s)
	}
	if cpu.X[riscv.A0]*2 != cpu.X[riscv.A1] {
		t.Errorf("loop arithmetic wrong under traces: a0=%d a1=%d", cpu.X[riscv.A0], cpu.X[riscv.A1])
	}
}

// TestTracePokeMidTrace patches an instruction in the middle of a block
// that is live inside a hot trace: the next dispatch must fall back off the
// dead trace and execute the new bytes, with nothing stale retired.
func TestTracePokeMidTrace(t *testing.T) {
	cpu := hotCPU(t, enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: -8},
	))
	if stop := cpu.Run(400); stop.Kind != StopLimit {
		t.Fatalf("warmup stop: %+v", stop)
	}
	if cpu.Blocks.TracesBuilt == 0 || cpu.Blocks.TraceHits == 0 {
		t.Fatalf("trace tier not exercised: %+v", cpu.Blocks)
	}

	patch := enc(t, riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 50})
	if !cpu.Mem.Poke(obj.TextBase+4, patch) {
		t.Fatal("poke failed")
	}
	cpu.PC = obj.TextBase
	before := cpu.X[riscv.A0]
	if stop := cpu.Run(3); stop.Kind != StopLimit {
		t.Fatalf("stop after poke: %+v", stop)
	}
	if got := cpu.X[riscv.A0] - before; got != 51 {
		t.Errorf("patched iteration added %d, want 51 (stale trace?)", got)
	}
	if cpu.Blocks.Invalidations == 0 {
		t.Errorf("no invalidation counted after poke: %+v", cpu.Blocks)
	}
}

// TestTraceMapPageRemap swaps the text page's frame (the MMView primitive)
// under a live trace; the hart must execute the new frame's code.
func TestTraceMapPageRemap(t *testing.T) {
	cpu := hotCPU(t, enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: -4},
	))
	if stop := cpu.Run(200); stop.Kind != StopLimit {
		t.Fatalf("warmup stop: %+v", stop)
	}
	if cpu.Blocks.TracesBuilt == 0 {
		t.Fatalf("trace tier not exercised: %+v", cpu.Blocks)
	}

	frame := codeFrame(enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 7},
		riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: -4},
	))
	cpu.Mem.MapPage(obj.TextBase, frame)

	cpu.PC = obj.TextBase
	before := cpu.X[riscv.A0]
	if stop := cpu.Run(2); stop.Kind != StopLimit {
		t.Fatalf("stop after remap: %+v", stop)
	}
	if got := cpu.X[riscv.A0] - before; got != 7 {
		t.Errorf("remapped iteration added %d, want 7 (stale trace?)", got)
	}
}

// TestTraceSharedFrameTwoCPUs runs two harts with hot traces over one
// address space: a poke through the shared frame must kill both harts'
// traces, even though only one memory saw the Poke call.
func TestTraceSharedFrameTwoCPUs(t *testing.T) {
	mem := NewMemory()
	text := enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 2},
		riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: -8},
	)
	mem.Map(obj.TextBase, uint64(len(text)), obj.PermRX)
	mem.write(obj.TextBase, text)

	// Hart B runs the same frames through a second address space, the
	// cross-process shared-text arrangement (ShareFrom does not bump the
	// sharer's map generation, so only the per-frame gen protects B).
	memB := NewMemory()
	memB.ShareFrom(mem, obj.TextBase, uint64(len(text)))

	a, b := NewCPU(mem, riscv.RV64GC), NewCPU(memB, riscv.RV64GC)
	a.TraceThreshold, b.TraceThreshold = 2, 2
	a.PC, b.PC = obj.TextBase, obj.TextBase
	for i := 0; i < 10; i++ {
		if stop := a.Run(30); stop.Kind != StopLimit {
			t.Fatalf("hart A stop: %+v", stop)
		}
		if stop := b.Run(30); stop.Kind != StopLimit {
			t.Fatalf("hart B stop: %+v", stop)
		}
	}
	if a.Blocks.TracesBuilt == 0 || b.Blocks.TracesBuilt == 0 {
		t.Fatalf("trace tier not exercised: A=%+v B=%+v", a.Blocks, b.Blocks)
	}

	patch := enc(t, riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 100})
	if !mem.Poke(obj.TextBase+4, patch) {
		t.Fatal("poke failed")
	}
	for name, c := range map[string]*CPU{"A": a, "B": b} {
		c.PC = obj.TextBase
		before := c.X[riscv.A0]
		if stop := c.Run(3); stop.Kind != StopLimit {
			t.Fatalf("hart %s stop after poke: %+v", name, stop)
		}
		if got := c.X[riscv.A0] - before; got != 101 {
			t.Errorf("hart %s: patched iteration added %d, want 101", name, got)
		}
	}
}

// TestTraceSideExitPrecision trains a branch one way, then lets the guard
// fail: the side exit must land on the block tier with state bit-identical
// to the stepping loop at every slice boundary, including the final flip.
func TestTraceSideExitPrecision(t *testing.T) {
	text := enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.BNE, Rs1: riscv.A0, Rs2: riscv.A2, Imm: -4},
		riscv.Inst{Op: riscv.EBREAK},
	)
	mk := func(interp bool) *CPU {
		cpu := codeCPU(t, text)
		cpu.Interp = interp
		cpu.TraceThreshold = 2
		cpu.X[riscv.A2] = 1000
		return cpu
	}
	trc, ref := mk(false), mk(true)
	const slice = 97 // prime: slice edges wander through the trace body
	for i := 0; ; i++ {
		st := trc.Run(slice)
		sr := ref.Run(slice)
		if st != sr {
			t.Fatalf("slice %d: stop %+v != ref %+v", i, st, sr)
		}
		sameState(t, "slice", trc, ref)
		if st.Kind == StopBreak {
			break
		}
		if st.Kind != StopLimit {
			t.Fatalf("slice %d: unexpected stop %+v", i, st)
		}
		if i > 100 {
			t.Fatal("did not terminate")
		}
	}
	if trc.Blocks.TracesBuilt == 0 || trc.Blocks.SideExits == 0 {
		t.Fatalf("side exit not exercised: %+v", trc.Blocks)
	}
	if trc.X[riscv.A0] != 1000 {
		t.Errorf("a0=%d, want 1000", trc.X[riscv.A0])
	}
}

// TestTracePICIndirect drives a jalr that alternates between two targets:
// the polymorphic cache must hold both (PIC hits, not per-dispatch misses)
// and the trace tier's burned-in indirect guard must side-exit precisely on
// the off-target half of the dispatches.
func TestTracePICIndirect(t *testing.T) {
	// 0x00: andi t1, a0, 1
	// 0x04: slli t1, t1, 5
	// 0x08: add  t1, t1, a4     (a4 = TextBase+0x20, target table)
	// 0x0c: jalr zero, t1, 0
	// 0x20: addi a0,a0,1 ; jal -0x24    (target for even a0)
	// 0x40: addi a0,a0,1 ; jal -0x44    (target for odd a0)
	text := make([]byte, 0x48)
	copy(text[0x00:], enc(t,
		riscv.Inst{Op: riscv.ANDI, Rd: riscv.T1, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.SLLI, Rd: riscv.T1, Rs1: riscv.T1, Imm: 5},
		riscv.Inst{Op: riscv.ADD, Rd: riscv.T1, Rs1: riscv.T1, Rs2: riscv.A4},
		riscv.Inst{Op: riscv.JALR, Rd: riscv.Zero, Rs1: riscv.T1, Imm: 0},
	))
	copy(text[0x20:], enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: -0x24},
	))
	copy(text[0x40:], enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: -0x44},
	))
	mk := func(interp bool) *CPU {
		cpu := codeCPU(t, text)
		cpu.Interp = interp
		// Default threshold: the block tier chain-follows through the PIC
		// for the first ~64 iterations (both targets cached → hits), then
		// the trace takes over with the MRU target burned in and the
		// off-target half of the dispatches side-exits.
		cpu.X[riscv.A4] = obj.TextBase + 0x20
		return cpu
	}
	trc, ref := mk(false), mk(true)
	const slice = 89
	for i := 0; i < 20; i++ {
		st := trc.Run(slice)
		sr := ref.Run(slice)
		if st != sr {
			t.Fatalf("slice %d: stop %+v != ref %+v", i, st, sr)
		}
		sameState(t, "slice", trc, ref)
	}
	s := trc.Blocks
	if s.PICHits == 0 {
		t.Fatalf("polymorphic cache never hit: %+v", s)
	}
	if s.PICMisses > s.PICHits {
		t.Errorf("PIC thrashing on a 2-target site: hits=%d misses=%d", s.PICHits, s.PICMisses)
	}
	if s.TracesBuilt == 0 || s.SideExits == 0 {
		t.Errorf("burned indirect guard not exercised: %+v", s)
	}
	// 6 instructions per iteration; every iteration bumps a0 once.
	if want := trc.Instret / 6; trc.X[riscv.A0] != want {
		t.Errorf("a0=%d, want %d", trc.X[riscv.A0], want)
	}
}

// TestTraceMidFaultPrecision faults a load deep inside a hot trace (guards
// already passed, cross-block state live) and requires the exact
// architectural state the stepping loop produces.
func TestTraceMidFaultPrecision(t *testing.T) {
	text := enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.LD, Rd: riscv.A1, Rs1: riscv.A3, Imm: 0},
		riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: -8},
	)
	run := func(interp bool) *CPU {
		cpu := codeCPU(t, text)
		cpu.Interp = interp
		cpu.TraceThreshold = 2
		cpu.Mem.Map(0x10000, obj.PageSize, obj.PermRW)
		cpu.X[riscv.A3] = 0x10000
		if stop := cpu.Run(300); stop.Kind != StopLimit { // train the trace
			t.Fatalf("interp=%v: warmup stop %+v", interp, stop)
		}
		cpu.X[riscv.A3] = 0xdead0000 // next load faults mid-trace
		stop := cpu.Run(100)
		if stop.Kind != StopFault {
			t.Fatalf("interp=%v: stop %+v, want fault", interp, stop)
		}
		f := stop.Fault
		if f.Kind != FaultAccess || f.PC != obj.TextBase+4 || f.Addr != 0xdead0000 {
			t.Errorf("interp=%v: fault %+v", interp, f)
		}
		return cpu
	}
	ref := run(true)
	trc := run(false)
	sameState(t, "fault", trc, ref)
	if trc.Blocks.TraceHits == 0 {
		t.Fatalf("trace tier not exercised: %+v", trc.Blocks)
	}
}

// TestTraceThresholdZeroDisables pins the tier off and checks no trace is
// ever built, however hot the loop gets.
func TestTraceThresholdZeroDisables(t *testing.T) {
	cpu := codeCPU(t, enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: -4},
	))
	cpu.TraceThreshold = 0
	if stop := cpu.Run(10_000); stop.Kind != StopLimit {
		t.Fatalf("stop: %+v", stop)
	}
	if s := cpu.Blocks; s.TracesBuilt != 0 || s.TraceHits != 0 {
		t.Errorf("trace tier ran while disabled: %+v", s)
	}
}
