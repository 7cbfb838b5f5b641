// Differential tests: the block engine must be architecturally
// indistinguishable from the per-instruction reference loop — bit-identical
// X/F/V/PC/Instret/Cycles at every slice boundary and identical faults —
// across the workload suite. check.sh runs these under -race.
package emu_test

import (
	"testing"

	"github.com/eurosys26p57/chimera/internal/bench"
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/instrument"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// compareState requires bit-identical architectural state.
func compareState(t *testing.T, tag string, blk, ref *emu.CPU) {
	t.Helper()
	if blk.PC != ref.PC {
		t.Fatalf("%s: PC %#x != ref %#x", tag, blk.PC, ref.PC)
	}
	if blk.Instret != ref.Instret {
		t.Fatalf("%s: Instret %d != ref %d", tag, blk.Instret, ref.Instret)
	}
	if blk.Cycles != ref.Cycles {
		t.Fatalf("%s: Cycles %d != ref %d", tag, blk.Cycles, ref.Cycles)
	}
	if blk.X != ref.X {
		t.Fatalf("%s: integer register files diverge", tag)
	}
	if blk.F != ref.F {
		t.Fatalf("%s: FP register files diverge", tag)
	}
	if blk.V != ref.V || blk.VL != ref.VL || blk.VT != ref.VT {
		t.Fatalf("%s: vector state diverges", tag)
	}
}

// diffImage runs img on a block-engine hart (trace tier at threshold, 0 =
// off) and a stepping hart in lockstep slices and compares full state at
// every boundary.
func diffImage(t *testing.T, img *obj.Image, isa riscv.Ext, threshold uint32) {
	t.Helper()
	mk := func(interp bool) *emu.CPU {
		mem := emu.NewMemory()
		mem.MapImage(img)
		cpu := emu.NewCPU(mem, isa)
		cpu.Interp = interp
		if !interp {
			cpu.TraceThreshold = threshold
		}
		cpu.Reset(img)
		return cpu
	}
	blk, ref := mk(false), mk(true)
	const slice = 997 // prime, so slice edges wander through block bodies
	for i := 0; i < 1_000_000; i++ {
		sb := blk.Run(slice)
		sr := ref.Run(slice)
		if sb != sr {
			t.Fatalf("slice %d: stop %+v != ref %+v", i, sb, sr)
		}
		compareState(t, "slice", blk, ref)
		if sb.Kind != emu.StopLimit {
			if sb.Kind == emu.StopFault {
				bf, rf := sb.Fault, sr.Fault
				if bf.Kind != rf.Kind || bf.PC != rf.PC || bf.Addr != rf.Addr {
					t.Fatalf("fault %v != ref %v", bf, rf)
				}
			}
			return // ecall/ebreak/fault: program done
		}
	}
	t.Fatal("workload did not terminate")
}

// Each workload diffs under three block-engine configurations: the trace
// tier off (pure block tier), the production promotion threshold, and an
// aggressive threshold of 2 that pushes nearly all execution through
// superblocks (guards, side exits, seam truncation all hot).
func diffTiers(t *testing.T, img *obj.Image, isa riscv.Ext) {
	t.Helper()
	for _, m := range []struct {
		name      string
		threshold uint32
	}{{"blocks", 0}, {"traces", emu.DefaultTraceThreshold}, {"traces-hot", 2}} {
		t.Run(m.name, func(t *testing.T) { diffImage(t, img, isa, m.threshold) })
	}
}

func TestDifferentialFib(t *testing.T) {
	img, err := workload.Fibonacci(200, riscv.RV64GC, true)
	if err != nil {
		t.Fatal(err)
	}
	diffTiers(t, img, riscv.RV64GC)
}

func TestDifferentialMatmulScalar(t *testing.T) {
	img, err := workload.Matmul(12, false, true)
	if err != nil {
		t.Fatal(err)
	}
	diffTiers(t, img, riscv.RV64GC)
}

func TestDifferentialMatmulRVV(t *testing.T) {
	img, err := workload.Matmul(12, true, true)
	if err != nil {
		t.Fatal(err)
	}
	diffTiers(t, img, riscv.RV64GCV)
}

// TestDifferentialSPEC drives SPEC-shaped synthetics through the kernel —
// syscalls, SMILE trampolines, runtime rewriting, indirect-jump hooks — on
// both engines and compares state at every scheduler slice.
func TestDifferentialSPEC(t *testing.T) {
	cases := workload.SpecSuite()[:3]
	for _, c := range cases {
		c := c
		t.Run(c.Params.Name, func(t *testing.T) {
			c.Params.Rounds = 6
			img, err := workload.BuildSpec(c.Params, true)
			if err != nil {
				t.Fatal(err)
			}
			mk := func(interp bool, threshold uint32) *kernel.Process {
				v, err := kernel.VariantFromImage(img)
				if err != nil {
					t.Fatal(err)
				}
				p, err := kernel.NewProcess(c.Params.Name, []kernel.Variant{v})
				if err != nil {
					t.Fatal(err)
				}
				p.CPU.Interp = interp
				p.CPU.TraceThreshold = threshold
				return p
			}
			// traces-hot (threshold 2) routes nearly every kernel-visible
			// dispatch through superblocks — syscall ecalls, trampoline
			// ebreaks, and runtime-rewrite pokes all land mid-trace.
			for _, m := range []struct {
				name      string
				threshold uint32
			}{{"traces", emu.DefaultTraceThreshold}, {"traces-hot", 2}} {
				t.Run(m.name, func(t *testing.T) {
					blk, ref := mk(false, m.threshold), mk(true, 0)
					for i := 0; i < 1_000_000; i++ {
						_, stB, errB := blk.Run(4099)
						_, stR, errR := ref.Run(4099)
						if (errB == nil) != (errR == nil) || stB != stR {
							t.Fatalf("slice %d: status %v/%v != ref %v/%v", i, stB, errB, stR, errR)
						}
						compareState(t, "slice", blk.CPU, ref.CPU)
						if stB == kernel.StatusExited {
							if blk.ExitCode != ref.ExitCode {
								t.Fatalf("exit %d != ref %d", blk.ExitCode, ref.ExitCode)
							}
							return
						}
					}
					t.Fatal("did not terminate")
				})
			}
		})
	}
}

// TestRunMatmulZeroAllocs is the alloc regression test: once the
// translation caches are warm, a full matmul run must not allocate — not
// under traces, not under the block tier alone, not under the
// per-instruction loop — for the scalar kernel and for the RVV kernel,
// whose vector instructions run as µops.
func TestRunMatmulZeroAllocs(t *testing.T) {
	kernels := []struct {
		name string
		rvv  bool
		isa  riscv.Ext
	}{{"scalar", false, riscv.RV64GC}, {"rvv", true, riscv.RV64GCV}}
	for _, mode := range tierModes {
		t.Run(mode.name, func(t *testing.T) {
			for _, k := range kernels {
				t.Run(k.name, func(t *testing.T) {
					img, err := workload.Matmul(12, k.rvv, true)
					if err != nil {
						t.Fatal(err)
					}
					mem := emu.NewMemory()
					mem.MapImage(img)
					cpu := emu.NewCPU(mem, k.isa)
					cpu.Interp = mode.interp
					cpu.TraceThreshold = mode.threshold
					full := func() {
						cpu.Reset(img)
						for {
							stop := cpu.Run(10_000_000)
							if stop.Kind == emu.StopLimit {
								continue
							}
							if stop.Kind != emu.StopEcall {
								t.Fatalf("stop: %+v", stop)
							}
							return
						}
					}
					warmStable(mode.threshold, func() emu.BlockStats { return cpu.Blocks }, full)
					if allocs := testing.AllocsPerRun(5, full); allocs != 0 {
						t.Errorf("steady-state Run allocates %.1f allocs/op, want 0", allocs)
					}
				})
			}
		})
	}
}

// TestRunSPECZeroAllocs is the serving-path alloc gate: a warmed kernel
// process re-run via Process.Reset must execute a full SPEC-shaped workload
// — syscalls, trampolines, indirect hooks, trace promotion — without a
// single heap allocation, under all three tiers. Every kernel process
// carries an attached instrument.Hooks set, so the base submode is already
// the hooked-but-nil-observer path; the coverage, cmplog and profile
// submodes prove that installed observers (and the per-exec ResetState
// inside Process.Reset) stay allocation-free too.
func TestRunSPECZeroAllocs(t *testing.T) {
	c := workload.SpecSuite()[0]
	c.Params.Rounds = 4
	img, err := workload.BuildSpec(c.Params, true)
	if err != nil {
		t.Fatal(err)
	}
	observers := []struct {
		name    string
		install func(*instrument.Hooks)
	}{
		{"nilobs", nil},
		{"coverage", func(h *instrument.Hooks) { h.Cov = instrument.NewCoverage() }},
		{"cmplog", func(h *instrument.Hooks) { h.Cmp = instrument.NewCmpLog() }},
		{"profile", func(h *instrument.Hooks) { h.Prof = instrument.NewProfile() }},
	}
	for _, mode := range tierModes {
		for _, obs := range observers {
			t.Run(mode.name+"/"+obs.name, func(t *testing.T) {
				v, err := kernel.VariantFromImage(img)
				if err != nil {
					t.Fatal(err)
				}
				p, err := kernel.NewProcess(c.Params.Name, []kernel.Variant{v})
				if err != nil {
					t.Fatal(err)
				}
				p.CPU.Interp = mode.interp
				p.CPU.TraceThreshold = mode.threshold
				if obs.install != nil {
					obs.install(p.Hooks())
					p.CPU.RefreshHooks()
				}
				full := func() {
					p.Reset()
					if _, err := bench.RunOnCore(p, riscv.RV64GCV); err != nil {
						t.Fatal(err)
					}
				}
				warmStable(mode.threshold, func() emu.BlockStats { return p.CPU.Blocks }, full)
				if allocs := testing.AllocsPerRun(5, full); allocs != 0 {
					t.Errorf("steady-state process run allocates %.1f allocs/op, want 0", allocs)
				}
			})
		}
	}
}
