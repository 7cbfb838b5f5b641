package emu

import (
	"testing"

	"github.com/eurosys26p57/chimera/internal/instrument"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// observerCPU is codeCPU with a full observer set installed.
func observerCPU(t *testing.T, text []byte) (*CPU, *instrument.Hooks) {
	t.Helper()
	cpu := codeCPU(t, text)
	h := &instrument.Hooks{
		Cov:  instrument.NewCoverage(),
		Cmp:  instrument.NewCmpLog(),
		Mem:  instrument.NewMemTrace(),
		Prof: instrument.NewProfile(),
	}
	cpu.SetHooks(h)
	return cpu, h
}

// jalrLoopText is the alternating-target indirect-jump loop from
// TestTracePICIndirect: the shape whose trace promotion an indirect hook
// vetoes and a pure observer must not.
func jalrLoopText(t *testing.T) []byte {
	t.Helper()
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
	return text
}

// TestObserversDoNotVetoTracePromotion is the trace+hook interaction test:
// pure observers (coverage, cmp) must leave jalr trace stitching intact —
// traces promote, the burned indirect guard still side-exits precisely, and
// the architectural trajectory matches an identically-observed interpreter.
func TestObserversDoNotVetoTracePromotion(t *testing.T) {
	text := jalrLoopText(t)
	mk := func(interp bool) (*CPU, *instrument.Hooks) {
		cpu, h := observerCPU(t, text)
		cpu.Interp = interp
		cpu.X[riscv.A4] = obj.TextBase + 0x20
		return cpu, h
	}
	trc, htrc := mk(false)
	ref, href := mk(true)
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
	if s.TracesBuilt == 0 {
		t.Fatalf("pure observers suppressed trace promotion: %+v", s)
	}
	if s.SideExits == 0 {
		t.Fatalf("burned indirect guard never exercised under observers: %+v", s)
	}
	// The trace tier actually stitched across the jalr: verify some trace
	// carries an expJalr guard, the seam an indirect hook would have vetoed.
	guarded := false
	for _, b := range trc.bcache {
		if b == nil || b.trace == nil {
			continue
		}
		for i := range b.trace.uops {
			if b.trace.uops[i].expect == expJalr {
				guarded = true
			}
		}
	}
	if !guarded {
		t.Error("no stitched trace carries an expJalr seam; jalr stitching was downgraded")
	}
	// Both engines logged the same comparisons (none here — the loop has no
	// conditional branch) and observers saw activity.
	if htrc.Cov.Edges() == 0 {
		t.Error("coverage map empty under the trace tier")
	}
	if href.Cov.Edges() != 0 {
		// The interpreter has no dispatch stream, so block-level coverage
		// stays empty there by design.
		t.Error("interpreter unexpectedly recorded block coverage")
	}
}

// TestIndirectHookStillVetoesJalrStitching pins the pre-existing contract:
// a target-rewriting hook keeps vetoing jalr seams even now that it shares
// the registration surface with observers.
func TestIndirectHookStillVetoesJalrStitching(t *testing.T) {
	cpu := codeCPU(t, jalrLoopText(t))
	h := &instrument.Hooks{Indirect: func(pc, target uint64) (uint64, uint64) { return target, 0 }}
	cpu.SetHooks(h)
	cpu.X[riscv.A4] = obj.TextBase + 0x20
	if stop := cpu.Run(5000); stop.Kind != StopLimit {
		t.Fatalf("stop: %+v", stop)
	}
	for _, b := range cpu.bcache {
		if b == nil || b.trace == nil {
			continue
		}
		for i := range b.trace.uops {
			if b.trace.uops[i].expect == expJalr {
				t.Fatal("expJalr seam stitched with an indirect hook installed")
			}
		}
	}
	if h.IndirectCalls == 0 {
		t.Error("indirect hook never fired")
	}
}

// TestCoverageParityBlocksVsTraces requires the two translation tiers to
// produce bit-identical coverage maps: every stitched block a trace enters
// is recorded exactly as a block-tier dispatch sequence would record it,
// including side exits and the halting dispatch.
func TestCoverageParityBlocksVsTraces(t *testing.T) {
	programs := map[string][]byte{
		"branch-flip": enc(t,
			riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
			riscv.Inst{Op: riscv.BNE, Rs1: riscv.A0, Rs2: riscv.A2, Imm: -4},
			riscv.Inst{Op: riscv.EBREAK},
		),
		"jalr-alternate": append(jalrLoopText(t), enc(t, riscv.Inst{Op: riscv.EBREAK})...),
	}
	for name, text := range programs {
		run := func(threshold uint32) *instrument.Coverage {
			cpu, h := observerCPU(t, text)
			cpu.TraceThreshold = threshold
			cpu.X[riscv.A2] = 500
			cpu.X[riscv.A4] = obj.TextBase + 0x20
			cpu.MaxInstret = 4000
			for {
				stop := cpu.Run(97) // prime slice: budget seams wander
				if stop.Kind == StopBreak || stop.Kind == StopBudget {
					break
				}
				if stop.Kind != StopLimit {
					t.Fatalf("%s: stop %+v", name, stop)
				}
			}
			if threshold != 0 && cpu.Blocks.TracesBuilt == 0 {
				t.Fatalf("%s: trace tier not exercised", name)
			}
			return h.Cov
		}
		blocks := run(0)
		traces := run(2)
		if blocks.Map != traces.Map {
			diff := 0
			for i := range blocks.Map {
				if blocks.Map[i] != traces.Map[i] {
					diff++
				}
			}
			t.Errorf("%s: coverage maps diverge between tiers (%d cells differ)", name, diff)
		}
		if blocks.Edges() == 0 {
			t.Errorf("%s: empty coverage map", name)
		}
	}
}

// TestProfileParityBlocksVsTraces requires the two translation tiers to
// attribute identical per-block (cycles, instret, dispatches) to the guest
// profile: every stitched block a trace enters is credited as a block-tier
// dispatch of that block would be, including side exits, budget seams, the
// halting dispatch and the instruction-budget stop. Totals are conserved
// against the block engine's retirement count and the CPU's cycles.
func TestProfileParityBlocksVsTraces(t *testing.T) {
	mm, err := workload.Matmul(16, false, true)
	if err != nil {
		t.Fatal(err)
	}
	// long-block's 64-instruction first block ends without a control
	// transfer, so its seam is an unguarded fallthrough; stitched-fault's
	// load faults on the first µop of a stitched block (the halting case of
	// the entered rule).
	longBody := make([]riscv.Inst, 66, 68)
	for i := range longBody {
		longBody[i] = riscv.Inst{Op: riscv.ADDI, Rd: riscv.A1, Rs1: riscv.A1, Imm: 1}
	}
	longBody = append(longBody,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.BNE, Rs1: riscv.A0, Rs2: riscv.A2, Imm: -67 * 4},
	)
	programs := []struct {
		name   string
		budget uint64
		want   StopKind
		cpu    func() (*CPU, *instrument.Hooks)
	}{
		{"branch-flip", 4000, StopBreak, func() (*CPU, *instrument.Hooks) {
			cpu, h := observerCPU(t, enc(t,
				riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
				riscv.Inst{Op: riscv.BNE, Rs1: riscv.A0, Rs2: riscv.A2, Imm: -4},
				riscv.Inst{Op: riscv.EBREAK},
			))
			cpu.X[riscv.A2] = 500
			return cpu, h
		}},
		{"exit-branch", 4000, StopBreak, func() (*CPU, *instrument.Hooks) {
			cpu, h := observerCPU(t, enc(t,
				riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
				riscv.Inst{Op: riscv.BEQ, Rs1: riscv.A0, Rs2: riscv.A2, Imm: 8}, // stitched not-taken
				riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: -8},
				riscv.Inst{Op: riscv.EBREAK},
			))
			cpu.X[riscv.A2] = 500
			return cpu, h
		}},
		{"jalr-alternate", 4000, StopBudget, func() (*CPU, *instrument.Hooks) {
			cpu, h := observerCPU(t, append(jalrLoopText(t), enc(t, riscv.Inst{Op: riscv.EBREAK})...))
			cpu.X[riscv.A4] = obj.TextBase + 0x20
			return cpu, h
		}},
		{"long-block", 4000, StopBudget, func() (*CPU, *instrument.Hooks) {
			cpu, h := observerCPU(t, enc(t, longBody...))
			cpu.X[riscv.A2] = 1 << 40
			return cpu, h
		}},
		{"stitched-fault", 4000, StopFault, func() (*CPU, *instrument.Hooks) {
			cpu, h := observerCPU(t, enc(t,
				riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
				riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: 4},
				riscv.Inst{Op: riscv.LD, Rd: riscv.A1, Rs1: riscv.A3, Imm: 0}, // faults past the page
				riscv.Inst{Op: riscv.ADDI, Rd: riscv.A3, Rs1: riscv.A3, Imm: 8},
				riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: -16},
			))
			cpu.Mem.Map(0x200000, obj.PageSize, obj.PermRW)
			cpu.X[riscv.A3] = 0x200000 + 3*8 // the fault lands mid-trace, not on a trace head
			return cpu, h
		}},
		{"matmul", 30011, StopBudget, func() (*CPU, *instrument.Hooks) {
			mem := NewMemory()
			mem.MapImage(mm)
			cpu := NewCPU(mem, riscv.RV64GC)
			cpu.Reset(mm)
			h := &instrument.Hooks{Prof: instrument.NewProfile()}
			cpu.SetHooks(h)
			return cpu, h
		}},
	}
	for _, prog := range programs {
		run := func(threshold uint32) (map[uint64]instrument.BlockSample, Stop) {
			cpu, h := prog.cpu()
			cpu.TraceThreshold = threshold
			cpu.MaxInstret = prog.budget
			cycles0 := cpu.Cycles
			var stop Stop
			for {
				stop = cpu.Run(97) // prime slice: budget seams wander
				if stop.Kind != StopLimit {
					break
				}
			}
			if stop.Kind != prog.want {
				t.Fatalf("%s/threshold %d: stop %+v, want kind %v", prog.name, threshold, stop, prog.want)
			}
			if threshold != 0 && cpu.Blocks.TraceHits == 0 {
				t.Fatalf("%s: trace tier not exercised", prog.name)
			}
			cycles, instret := h.Prof.Totals()
			if instret != cpu.Blocks.Retired {
				t.Errorf("%s/threshold %d: profile instret %d != retired %d", prog.name, threshold, instret, cpu.Blocks.Retired)
			}
			if cycles != cpu.Cycles-cycles0 {
				t.Errorf("%s/threshold %d: profile cycles %d != cpu cycles %d", prog.name, threshold, cycles, cpu.Cycles-cycles0)
			}
			bySite := make(map[uint64]instrument.BlockSample)
			for _, s := range h.Prof.Samples() {
				bySite[s.PC] = s
			}
			return bySite, stop
		}
		blocks, bstop := run(0)
		traces, tstop := run(2)
		if bstop != tstop {
			t.Fatalf("%s: tiers stopped differently: %+v vs %+v", prog.name, bstop, tstop)
		}
		if len(blocks) < 2 {
			t.Errorf("%s: only %d blocks profiled", prog.name, len(blocks))
		}
		for pc, b := range blocks {
			if tr := traces[pc]; tr != b {
				t.Errorf("%s: block %#x: blocks tier %+v, traces tier %+v", prog.name, pc, b, tr)
			}
		}
		for pc, tr := range traces {
			if _, ok := blocks[pc]; !ok {
				t.Errorf("%s: block %#x profiled only on the trace tier: %+v", prog.name, pc, tr)
			}
		}
	}
}

// TestCmpLogParityAcrossTiers requires identical comparison logs from the
// interpreter, the block tier, and the trace tier: same entries, same order,
// same operand values.
func TestCmpLogParityAcrossTiers(t *testing.T) {
	text := enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.BNE, Rs1: riscv.A0, Rs2: riscv.A2, Imm: -4},
		riscv.Inst{Op: riscv.EBREAK},
	)
	run := func(interp bool, threshold uint32) *instrument.CmpLog {
		cpu, h := observerCPU(t, text)
		cpu.Interp = interp
		cpu.TraceThreshold = threshold
		cpu.X[riscv.A2] = 300
		for {
			stop := cpu.Run(101)
			if stop.Kind == StopBreak {
				break
			}
			if stop.Kind != StopLimit {
				t.Fatalf("stop %+v", stop)
			}
		}
		return h.Cmp
	}
	interp := run(true, 0)
	blocks := run(false, 0)
	traces := run(false, 2)
	if interp.N != 300 {
		t.Fatalf("interpreter logged %d comparisons, want 300", interp.N)
	}
	for tier, log := range map[string]*instrument.CmpLog{"blocks": blocks, "traces": traces} {
		if log.N != interp.N {
			t.Errorf("%s: logged %d comparisons, interpreter %d", tier, log.N, interp.N)
			continue
		}
		for i := 0; i < interp.Len(); i++ {
			if log.Entry(i) != interp.Entry(i) {
				t.Errorf("%s: entry %d = %+v, interpreter %+v", tier, i, log.Entry(i), interp.Entry(i))
				break
			}
		}
	}
}

// TestMemTraceParityAcrossTiers requires identical access logs from all
// three engines, for integer and floating-point loads and stores, with a
// faulting access appearing as the final entry.
func TestMemTraceParityAcrossTiers(t *testing.T) {
	// Store then load a scratch cell each iteration; final load faults.
	programs := []struct {
		name    string
		perIter uint64 // accesses per loop iteration
		text    []byte
	}{
		{"int", 2, enc(t,
			riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
			riscv.Inst{Op: riscv.SD, Rs1: riscv.A3, Rs2: riscv.A0, Imm: 0},
			riscv.Inst{Op: riscv.LW, Rd: riscv.A1, Rs1: riscv.A3, Imm: 0},
			riscv.Inst{Op: riscv.BNE, Rs1: riscv.A0, Rs2: riscv.A2, Imm: -12},
			riscv.Inst{Op: riscv.LD, Rd: riscv.A1, Rs1: riscv.Zero, Imm: 0}, // faults
		)},
		{"fp", 4, enc(t,
			riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
			riscv.Inst{Op: riscv.FCVTDL, Rd: 1, Rs1: riscv.A0},
			riscv.Inst{Op: riscv.FSD, Rs1: riscv.A3, Rs2: 1, Imm: 0},
			riscv.Inst{Op: riscv.FLW, Rd: 2, Rs1: riscv.A3, Imm: 4},
			riscv.Inst{Op: riscv.FSW, Rs1: riscv.A3, Rs2: 2, Imm: 8},
			riscv.Inst{Op: riscv.FLD, Rd: 3, Rs1: riscv.A3, Imm: 8},
			riscv.Inst{Op: riscv.BNE, Rs1: riscv.A0, Rs2: riscv.A2, Imm: -24},
			riscv.Inst{Op: riscv.FLD, Rd: 4, Rs1: riscv.Zero, Imm: 0}, // faults
		)},
	}
	for _, prog := range programs {
		run := func(interp bool, threshold uint32) *instrument.MemTrace {
			cpu, h := observerCPU(t, prog.text)
			cpu.Interp = interp
			cpu.TraceThreshold = threshold
			cpu.Mem.Map(0x200000, obj.PageSize, obj.PermRW)
			cpu.X[riscv.A3] = 0x200000
			cpu.X[riscv.A2] = 200
			for {
				stop := cpu.Run(103)
				if stop.Kind == StopFault {
					if stop.Fault.Kind != FaultAccess {
						t.Fatalf("%s: fault %+v", prog.name, stop.Fault)
					}
					break
				}
				if stop.Kind != StopLimit {
					t.Fatalf("%s: stop %+v", prog.name, stop)
				}
			}
			return h.Mem
		}
		interp := run(true, 0)
		blocks := run(false, 0)
		traces := run(false, 2)
		if want := 200*prog.perIter + 1; interp.N != want {
			t.Fatalf("%s: interpreter logged %d accesses, want %d", prog.name, interp.N, want)
		}
		last := interp.Entry(interp.Len() - 1)
		if last.Addr != 0 || last.Size != 8 || last.Write {
			t.Fatalf("%s: faulting access not final entry: %+v", prog.name, last)
		}
		for tier, log := range map[string]*instrument.MemTrace{"blocks": blocks, "traces": traces} {
			if log.N != interp.N {
				t.Errorf("%s/%s: logged %d accesses, interpreter %d", prog.name, tier, log.N, interp.N)
				continue
			}
			for i := 0; i < interp.Len(); i++ {
				if log.Entry(i) != interp.Entry(i) {
					t.Errorf("%s/%s: entry %d = %+v, interpreter %+v", prog.name, tier, i, log.Entry(i), interp.Entry(i))
					break
				}
			}
		}
	}
}

// TestNilObserversCompileIdenticalUops is the zero-cost-when-off contract
// at the µop level: a CPU with no hooks, and one with a hook set holding no
// observers, must build bit-identical blocks (hook flags all zero).
func TestNilObserversCompileIdenticalUops(t *testing.T) {
	text := enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.SD, Rs1: riscv.SP, Rs2: riscv.A0, Imm: -8},
		riscv.Inst{Op: riscv.BNE, Rs1: riscv.A0, Rs2: riscv.A2, Imm: -8},
	)
	bare := codeCPU(t, text)
	hooked := codeCPU(t, text)
	hooked.SetHooks(&instrument.Hooks{
		Indirect: func(pc, target uint64) (uint64, uint64) { return target, 0 },
	})
	if hooked.obs != 0 {
		t.Fatalf("observer mask %#x with no observers installed", hooked.obs)
	}
	a := bare.blockFor(obj.TextBase)
	b := hooked.blockFor(obj.TextBase)
	if a == nil || b == nil {
		t.Fatal("block build failed")
	}
	if len(a.uops) != len(b.uops) {
		t.Fatalf("uop counts differ: %d vs %d", len(a.uops), len(b.uops))
	}
	for i := range a.uops {
		if a.uops[i] != b.uops[i] {
			t.Errorf("uop %d differs: %+v vs %+v", i, a.uops[i], b.uops[i])
		}
		if a.uops[i].hook != 0 {
			t.Errorf("uop %d carries hook flags %#x with no observers", i, a.uops[i].hook)
		}
	}
}

// TestObserverFlipRekeysTranslations: installing a cmp/mem observer changes
// the translation key, so stale blocks rebuild with hook flags burned in —
// and uninstalling rebuilds them clean again. Swapping only the indirect
// hook must NOT invalidate anything (it is runtime-checked).
func TestObserverFlipRekeysTranslations(t *testing.T) {
	text := enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.BNE, Rs1: riscv.A0, Rs2: riscv.A2, Imm: -4},
		riscv.Inst{Op: riscv.EBREAK},
	)
	cpu := codeCPU(t, text)
	cpu.X[riscv.A2] = 1 << 40 // never taken: loop forever under slices
	if stop := cpu.Run(100); stop.Kind != StopLimit {
		t.Fatalf("stop: %+v", stop)
	}
	built := cpu.Blocks.Built

	// Indirect hook swap: no rebuild.
	h := &instrument.Hooks{Indirect: func(pc, target uint64) (uint64, uint64) { return target, 0 }}
	cpu.SetHooks(h)
	if stop := cpu.Run(100); stop.Kind != StopLimit {
		t.Fatalf("stop: %+v", stop)
	}
	if cpu.Blocks.Built != built {
		t.Fatalf("indirect hook swap rebuilt translations: %d -> %d", built, cpu.Blocks.Built)
	}

	// Observer install: rebuild with hook flags.
	h.Cmp = instrument.NewCmpLog()
	cpu.RefreshHooks()
	if stop := cpu.Run(100); stop.Kind != StopLimit {
		t.Fatalf("stop: %+v", stop)
	}
	if cpu.Blocks.Built == built {
		t.Fatal("cmp observer install did not rekey translations")
	}
	if h.Cmp.N == 0 {
		t.Fatal("rebuilt block logs no comparisons")
	}
	blk := cpu.blockFor(obj.TextBase)
	if blk == nil || blk.obs != hookCmp {
		t.Fatalf("rebuilt block obs = %#x, want hookCmp", blk.obs)
	}

	// Observer uninstall: rebuild clean.
	h.Cmp = nil
	cpu.RefreshHooks()
	if stop := cpu.Run(100); stop.Kind != StopLimit {
		t.Fatalf("stop: %+v", stop)
	}
	blk = cpu.blockFor(obj.TextBase)
	if blk == nil || blk.obs != 0 {
		t.Fatalf("block after uninstall obs = %#x, want 0", blk.obs)
	}
	for i := range blk.uops {
		if blk.uops[i].hook != 0 {
			t.Fatalf("uop %d keeps hook flags after observer uninstall", i)
		}
	}
}
