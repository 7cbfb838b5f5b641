package chbp

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// checksumData hashes the writable data pages of the running image to
// detect architectural side effects.
func checksumData(img *obj.Image, cpu *emu.CPU) uint64 {
	var h uint64 = 1469598103934665603
	for _, s := range img.Sections {
		if s.Perm&obj.PermW == 0 {
			continue
		}
		for a := s.Addr; a < s.End(); a += 8 {
			v, err := cpu.Mem.ReadUint64(a)
			if err != nil {
				break
			}
			h = (h ^ v) * 1099511628211
		}
	}
	return h
}

// recoveryCounts tallies the runtime events the mini fault handler saw.
type recoveryCounts struct {
	segv, sigill, traps int
}

// runImage executes an image on a hart of the given ISA, servicing CHBP's
// deterministic faults with the table-driven recovery the kernel implements
// (§4.3). It returns the CPU at the first ecall.
func runImage(t *testing.T, img *obj.Image, tables *Tables, isa riscv.Ext) (*emu.CPU, recoveryCounts) {
	t.Helper()
	mem := emu.NewMemory()
	mem.MapImage(img)
	cpu := emu.NewCPU(mem, isa)
	cpu.Reset(img)
	var rc recoveryCounts
	for i := 0; i < 100000; i++ {
		stop := cpu.Run(3_000_000)
		switch stop.Kind {
		case emu.StopEcall:
			return cpu, rc
		case emu.StopBreak:
			rc.traps++
			if tables != nil {
				if tgt, ok := tables.Trap[cpu.PC]; ok {
					cpu.PC = tgt
					continue
				}
				if resume, ok := tables.ExitTrap[cpu.PC]; ok {
					cpu.PC = resume
					continue
				}
			}
			t.Fatalf("unhandled ebreak at %#x", cpu.PC)
		case emu.StopFault:
			f := stop.Fault
			if tables == nil {
				t.Fatalf("fault with no tables: %v", f)
			}
			switch f.Kind {
			case emu.FaultAccess:
				// Partially-executed SMILE jalr: the fault address is the
				// return address the jalr left in gp, minus 4 (§4.3).
				rc.segv++
				key := cpu.X[riscv.GP] - 4
				if tgt, ok := tables.Redirect[key]; ok {
					cpu.X[riscv.GP] = tables.GP
					cpu.PC = tgt
					continue
				}
				// Fig. 5 general-register recovery: scan for a register
				// holding a return address matching a redirect key.
				recovered := false
				for r := riscv.T0; r < 32; r++ {
					if tgt, ok := tables.Redirect[cpu.X[r]-4]; ok {
						cpu.PC = tgt
						recovered = true
						break
					}
				}
				if !recovered {
					t.Fatalf("unrecoverable SIGSEGV: %v (key %#x)", f, key)
				}
			case emu.FaultIllegal:
				rc.sigill++
				tgt, ok := tables.Redirect[f.PC]
				if !ok {
					t.Fatalf("unrecoverable SIGILL: %v", f)
				}
				cpu.PC = tgt
			}
		default:
			t.Fatalf("run did not settle: %+v", stop)
		}
	}
	t.Fatal("recovery loop did not terminate")
	return nil, rc
}

// buildVectorSum builds a program that computes sum((a[i]+b[i])*a[i]) over 4
// doubles with vector instructions, plus scalar bookkeeping interleaved so
// batching and neighbor copying are exercised. Result (as int64) in a0.
func buildVectorSum(isa riscv.Ext, compress bool) (*asm.Builder, error) {
	b := asm.NewBuilder(isa)
	b.Compress = compress
	b.DataF64("vecA", []float64{1, 2, 3, 4})
	b.DataF64("vecB", []float64{10, 20, 30, 40})
	b.Zero("out", 64)
	b.Func("main")
	b.La(riscv.A0, "vecA")
	b.La(riscv.A1, "vecB")
	b.La(riscv.A2, "out")
	b.Li(riscv.A3, 4)
	b.I(riscv.Inst{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.A3, Imm: riscv.VType(riscv.E64)})
	b.I(riscv.Inst{Op: riscv.VLE64V, Rd: 1, Rs1: riscv.A0})
	b.Imm(riscv.ADDI, riscv.S2, riscv.S2, 3) // scalar interleave
	b.I(riscv.Inst{Op: riscv.VLE64V, Rd: 2, Rs1: riscv.A1})
	b.I(riscv.Inst{Op: riscv.VFADDVV, Rd: 3, Rs1: 1, Rs2: 2})
	b.I(riscv.Inst{Op: riscv.VFMULVV, Rd: 3, Rs1: 1, Rs2: 3})
	b.I(riscv.Inst{Op: riscv.VMVVI, Rd: 4, Imm: 0})
	b.I(riscv.Inst{Op: riscv.VFREDUSUMVS, Rd: 5, Rs1: 4, Rs2: 3})
	b.I(riscv.Inst{Op: riscv.VFMVFS, Rd: 6, Rs2: 5})
	b.I(riscv.Inst{Op: riscv.FCVTLD, Rd: riscv.A0, Rs1: 6})
	b.Op(riscv.ADD, riscv.A0, riscv.A0, riscv.S2)
	b.Ecall()
	return b, nil
}

const vectorSumWant = (1+10)*1 + (2+20)*2 + (3+30)*3 + (4+40)*4 + 3

func rewriteAndRun(t *testing.T, isa riscv.Ext, compress bool, opts Options) (*emu.CPU, recoveryCounts, *Result) {
	t.Helper()
	b, _ := buildVectorSum(isa, compress)
	img, err := b.Build("vecsum", "main")
	if err != nil {
		t.Fatal(err)
	}
	// Reference on an extension core.
	ref, _ := runImage(t, img, nil, riscv.RV64GCV)
	if got := int64(ref.X[riscv.A0]); got != vectorSumWant {
		t.Fatalf("reference result %d, want %d", got, vectorSumWant)
	}
	res, err := Rewrite(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	cpu, rc := runImage(t, res.Image, res.Tables, opts.TargetISA)
	if got := int64(cpu.X[riscv.A0]); got != vectorSumWant {
		t.Fatalf("rewritten result %d, want %d (stats %+v)", got, vectorSumWant, res.Stats)
	}
	return cpu, rc, res
}

func TestRewriteDowngradeUncompressed(t *testing.T) {
	_, rc, res := rewriteAndRun(t, riscv.RV64G|riscv.ExtV, false,
		Options{TargetISA: riscv.RV64G})
	if res.Stats.SmileEntries == 0 {
		t.Error("no SMILE trampolines placed")
	}
	if rc.segv+rc.sigill+rc.traps != 0 {
		t.Errorf("normal execution triggered fault handling: %+v", rc)
	}
}

func TestRewriteDowngradeCompressed(t *testing.T) {
	_, rc, res := rewriteAndRun(t, riscv.RV64GCV, true,
		Options{TargetISA: riscv.RV64GC})
	if res.Stats.SmileEntries == 0 {
		t.Error("no SMILE trampolines placed")
	}
	if rc.segv+rc.sigill+rc.traps != 0 {
		t.Errorf("normal execution triggered fault handling: %+v", rc)
	}
}

func TestRewriteEmptyPatch(t *testing.T) {
	// Empty patching replicates the sources; the rewritten binary still
	// needs the vector extension but pays only rewriting overhead (§6.2).
	b, _ := buildVectorSum(riscv.RV64GCV, true)
	img, err := b.Build("vecsum", "main")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Rewrite(img, Options{TargetISA: riscv.RV64GCV, EmptyPatch: true})
	if err != nil {
		t.Fatal(err)
	}
	cpu, rc := runImage(t, res.Image, res.Tables, riscv.RV64GCV)
	if got := int64(cpu.X[riscv.A0]); got != vectorSumWant {
		t.Fatalf("empty-patched result %d, want %d", got, vectorSumWant)
	}
	if rc.segv+rc.sigill+rc.traps != 0 {
		t.Errorf("normal execution triggered fault handling: %+v", rc)
	}
}

func TestRewriteTrapStrawman(t *testing.T) {
	_, rc, res := rewriteAndRun(t, riscv.RV64GCV, true,
		Options{TargetISA: riscv.RV64GC, Trampoline: TrapEntry})
	if res.Stats.TrapEntries == 0 {
		t.Fatal("strawman placed no trap entries")
	}
	if rc.traps == 0 {
		t.Error("strawman execution took no traps")
	}
}

// TestErroneousEntryP1 reproduces the paper's core correctness scenario: a
// legal indirect jump in the original program targets an instruction that
// the SMILE trampoline overwrote (P1). The rewritten binary must produce
// the original result, recovering through a deterministic fault.
func TestErroneousEntryP1(t *testing.T) {
	for _, compress := range []bool{false, true} {
		isa := riscv.RV64G | riscv.ExtV
		if compress {
			isa = riscv.RV64GCV
		}
		b := asm.NewBuilder(isa)
		b.Compress = compress
		b.Zero("out", 64)
		b.Func("main")
		b.Li(riscv.S2, 0) // accumulator
		b.Li(riscv.S3, 0) // pass counter
		b.La(riscv.A2, "out")
		b.Li(riscv.A3, 4)
		b.Label("loop")
		b.I(riscv.Inst{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.A3, Imm: riscv.VType(riscv.E64)})
		b.I(riscv.Inst{Op: riscv.VMVVI, Rd: 1, Imm: 2})
		b.I(riscv.Inst{Op: riscv.VSE64V, Rd: 1, Rs1: riscv.A2}) // source instruction
		b.Label("target")                                       // neighbor: overwritten by the SMILE jalr
		b.I(riscv.Inst{Op: riscv.ADDI, Rd: riscv.S2, Rs1: riscv.S2, Imm: 5})
		b.I(riscv.Inst{Op: riscv.ADDI, Rd: riscv.S3, Rs1: riscv.S3, Imm: 1})
		b.Li(riscv.T1, 2)
		b.Bge(riscv.S3, riscv.T1, "done")
		b.La(riscv.T2, "target")
		b.Jr(riscv.T2) // second pass: lands on the overwritten neighbor
		b.Label("done")
		b.Mv(riscv.A0, riscv.S2)
		b.Ecall()
		img, err := b.Build("p1", "main")
		if err != nil {
			t.Fatal(err)
		}
		// Reference.
		ref, _ := runImage(t, img, nil, riscv.RV64GCV)
		want := int64(ref.X[riscv.A0])
		if want != 10 {
			t.Fatalf("reference = %d, want 10", want)
		}
		target := riscv.RV64G
		if compress {
			target = riscv.RV64GC
		}
		res, err := Rewrite(img, Options{TargetISA: target})
		if err != nil {
			t.Fatal(err)
		}
		cpu, rc := runImage(t, res.Image, res.Tables, target)
		if got := int64(cpu.X[riscv.A0]); got != want {
			t.Errorf("compress=%v: result %d, want %d", compress, got, want)
		}
		if rc.segv+rc.sigill == 0 {
			t.Errorf("compress=%v: erroneous entry did not trigger passive fault handling", compress)
		}
	}
}

// TestClaim1DeterministicFaults is the property test behind §5 Claim 1:
// jumping to *every* possible entry offset inside every placed trampoline
// raises a deterministic fault (or executes harmlessly to one) without any
// memory side effect.
func TestClaim1DeterministicFaults(t *testing.T) {
	for _, compress := range []bool{false, true} {
		isa := riscv.RV64G | riscv.ExtV
		target := riscv.RV64G
		if compress {
			isa, target = riscv.RV64GCV, riscv.RV64GC
		}
		b, _ := buildVectorSum(isa, compress)
		img, err := b.Build("vecsum", "main")
		if err != nil {
			t.Fatal(err)
		}
		res, err := Rewrite(img, Options{TargetISA: target})
		if err != nil {
			t.Fatal(err)
		}
		step := uint64(4)
		if compress {
			step = 2
		}
		checked := 0
		for start := range res.Tables.Spaces {
			// Probe every possible erroneous entry offset strictly inside
			// the 8-byte trampoline (entry at the start is the normal path).
			for p := start + step; p < start+8; p += step {
				mem := emu.NewMemory()
				mem.MapImage(res.Image)
				cpu := emu.NewCPU(mem, target)
				cpu.Reset(res.Image)
				cpu.PC = p
				memBefore := checksumData(res.Image, cpu)
				var final emu.Stop
				halted := false
				for i := 0; i < 2 && !halted; i++ {
					final, halted = cpu.Step()
				}
				if !halted {
					t.Fatalf("compress=%v: entry at %#x ran away (pc=%#x)", compress, p, cpu.PC)
				}
				if final.Kind != emu.StopFault {
					t.Fatalf("compress=%v: entry at %#x stopped with %+v, want deterministic fault",
						compress, p, final)
				}
				// No architectural side effect may precede the fault.
				if after := checksumData(res.Image, cpu); after != memBefore {
					t.Fatalf("compress=%v: entry at %#x mutated memory before faulting", compress, p)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("compress=%v: no trampoline entries probed", compress)
		}
	}
}

func TestTablesRoundTrip(t *testing.T) {
	tab := NewTables(0x12345)
	tab.Redirect[0x100] = 0x9000
	tab.Redirect[0x104] = 0x9010
	tab.Trap[0x200] = 0x9100
	tab.ExitTrap[0x9200] = 0x300
	tab.ExitOf[0x9000] = 0x108
	tab.TargetStart, tab.TargetEnd = 0x9000, 0xA000
	back, err := UnmarshalTables(tab.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.GP != tab.GP || back.TargetStart != tab.TargetStart || back.TargetEnd != tab.TargetEnd {
		t.Error("header fields lost")
	}
	for k, v := range tab.Redirect {
		if back.Redirect[k] != v {
			t.Errorf("redirect[%#x] = %#x, want %#x", k, back.Redirect[k], v)
		}
	}
	if back.Trap[0x200] != 0x9100 || back.ExitTrap[0x9200] != 0x300 || back.ExitOf[0x9000] != 0x108 {
		t.Error("maps lost")
	}
	if !back.InTargetSection(0x9500) || back.InTargetSection(0xA000) {
		t.Error("InTargetSection wrong")
	}
}

func TestSmileEncodingUncompressed(t *testing.T) {
	s, target := uint64(0x10000), uint64(0x2345678)
	bytes8, err := EncodeSmile(s, target, false)
	if err != nil {
		t.Fatal(err)
	}
	auipc, err := riscv.Decode(bytes8[:4])
	if err != nil || auipc.Op != riscv.AUIPC || auipc.Rd != riscv.GP {
		t.Fatalf("first inst %v, %v", auipc, err)
	}
	jalr, err := riscv.Decode(bytes8[4:])
	if err != nil || jalr.Op != riscv.JALR || jalr.Rd != riscv.GP || jalr.Rs1 != riscv.GP {
		t.Fatalf("second inst %v, %v", jalr, err)
	}
	// Executing the pair must land exactly on target.
	got := uint64(int64(s) + auipc.Imm<<12 + jalr.Imm)
	if got != target {
		t.Errorf("smile lands at %#x, want %#x", got, target)
	}
}

// checkCompressedSmile checks the compressed-mode trampoline at s jumping
// to tgt: it encodes, both upper parcels fault when fetched as instruction
// starts (P2/P3), and the pair lands on tgt.
func checkCompressedSmile(t *testing.T, s, tgt uint64) {
	t.Helper()
	bytes8, err := EncodeSmile(s, tgt, true)
	if err != nil {
		t.Fatalf("s=%#x t=%#x: %v", s, tgt, err)
	}
	up1 := uint16(bytes8[2]) | uint16(bytes8[3])<<8
	if _, err := riscv.ParcelLen(up1); err == nil {
		t.Errorf("s=%#x: auipc upper parcel %#04x decodes", s, up1)
	}
	up2 := uint16(bytes8[6]) | uint16(bytes8[7])<<8
	if n, err := riscv.ParcelLen(up2); err != nil || n != 2 {
		t.Fatalf("s=%#x: jalr upper parcel shape wrong", s)
	}
	if _, err := riscv.DecodeCompressed(up2); err == nil {
		t.Errorf("s=%#x: jalr upper parcel %#04x decodes as a legal compressed inst", s, up2)
	}
	auipc, _ := riscv.Decode(bytes8[:4])
	jalr, _ := riscv.Decode(bytes8[4:])
	if got := uint64(int64(s) + auipc.Imm<<12 + jalr.Imm); got != tgt {
		t.Errorf("s=%#x: lands at %#x, want %#x", s, got, tgt)
	}
}

func TestSmileEncodingCompressedConstraints(t *testing.T) {
	sites := []uint64{0x10000, 0x10002, 0x10006, 0x2F000, 0x2F00A}
	reqs := make([]blockReq, len(sites))
	for i, s := range sites {
		reqs[i] = blockReq{site: s, size: 64, constrained: true}
	}
	for i, tgt := range packBlocks(0x100000, reqs) {
		checkCompressedSmile(t, sites[i], tgt)
	}
}

// TestPackBlocksProperties packs seeded random site sets — sorted, 2-byte
// aligned, mixing constrained and unconstrained blocks of 8-512 B — and
// checks the layout invariants: blocks are disjoint, every constrained
// address encodes a compressed-mode trampoline, every block sits at or
// above the base (unconstrained ones 4-aligned, constrained ones at their
// trampoline's residue), unconstrained blocks fill from the first
// constrained page without widening the section, an all-unconstrained set
// packs contiguously from the base, and the same input gives the same
// layout.
func TestPackBlocksProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		base := uint64(0x200000) + uint64(rng.Intn(256))<<12
		allFree := trial%10 == 0
		site := uint64(0x10000)
		reqs := make([]blockReq, 1+rng.Intn(200))
		for i := range reqs {
			site += 8 + 2*uint64(rng.Intn(1+rng.Intn(2048)))
			reqs[i] = blockReq{site: site, size: 4 * uint64(2+rng.Intn(127)),
				constrained: !allFree && rng.Intn(3) != 0}
		}
		addrs := packBlocks(base, reqs)
		if again := packBlocks(base, slices.Clone(reqs)); !slices.Equal(addrs, again) {
			t.Fatalf("trial %d: layout not deterministic", trial)
		}
		spans := make([]span, len(reqs))
		next := base
		for i, r := range reqs {
			a := addrs[i]
			spans[i] = span{a, a + r.size}
			switch {
			case a < base:
				t.Fatalf("trial %d: block %d at %#x below base %#x", trial, i, a, base)
			case r.constrained:
				if a%4 != r.site%4 {
					t.Fatalf("trial %d: constrained block %d at %#x off its site's residue", trial, i, a)
				}
				checkCompressedSmile(t, r.site, a)
			case a%4 != 0:
				t.Fatalf("trial %d: block %d at %#x not 4-aligned", trial, i, a)
			}
			if allFree {
				if a != next {
					t.Fatalf("trial %d: unconstrained block %d at %#x, want contiguous %#x", trial, i, a, next)
				}
				next += r.size
			}
		}
		// Unconstrained blocks fill from the lowest constrained block's
		// page and end at most their own (aligned) bytes past the last
		// constrained block: they never widen the section downward, and
		// never open gaps of their own.
		floor, ceil, free := base, base, uint64(0)
		for i, r := range reqs {
			if r.constrained {
				if floor == base || addrs[i] < floor {
					floor = addrs[i]
				}
				ceil = max(ceil, addrs[i]+r.size)
			} else {
				free += r.size + 3
			}
		}
		floor &^= obj.PageSize - 1
		for i, r := range reqs {
			if !r.constrained && (addrs[i] < floor || addrs[i]+r.size > max(ceil, floor)+free) {
				t.Fatalf("trial %d: unconstrained block %d at %#x outside [%#x, %#x+%d]",
					trial, i, addrs[i], floor, max(ceil, floor), free)
			}
		}
		slices.SortFunc(spans, func(x, y span) int { return cmp.Compare(x.start, y.start) })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end {
				t.Fatalf("trial %d: blocks [%#x,%#x) and [%#x,%#x) overlap", trial,
					spans[i-1].start, spans[i-1].end, spans[i].start, spans[i].end)
			}
		}
	}
}

// TestSpecTargetSectionSize rewrites every SPEC-suite shape at the code
// sizes of the benchmark's rewrite pool (12 log-spaced strata over 64-512
// KiB) and bounds the target section: compressed-mode residue windows once
// left these answers 2 MiB of padding around a few KiB of blocks. It also
// pins the size accounting: the section is the leading in-page gap, the
// block bytes and the inter-block padding.
func TestSpecTargetSectionSize(t *testing.T) {
	const strata = 12
	span := math.Log(512.0 / 64.0)
	for j, c := range workload.SpecSuite() {
		p := c.Params
		p.Rounds = 4
		p.CodeKB = int(64 * math.Exp(span*(float64(j%strata)+0.5)/strata))
		img, err := workload.BuildSpec(p, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			{TargetISA: riscv.RV64GC},
			{TargetISA: riscv.RV64GCV, EmptyPatch: true},
		} {
			res, err := Rewrite(img, opts)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			st := res.Stats
			name := fmt.Sprintf("%s@%dKiB/%v/empty=%v", p.Name, p.CodeKB, opts.TargetISA, opts.EmptyPatch)
			if st.TargetBytes > 64<<10 {
				t.Errorf("%s: target section %d B, want <= 64 KiB", name, st.TargetBytes)
			}
			sec := res.Image.Section(obj.SecTarget)
			if sec == nil || len(sec.Data) != st.TargetBytes || sec.Addr != res.Tables.TargetStart {
				t.Fatalf("%s: target section missing or mismatched with stats/tables", name)
			}
			// Padding is zero and a block's first byte never is (every
			// 32-bit encoding has low bits 11), so the first nonzero byte
			// is the lowest block.
			lead := slices.IndexFunc(sec.Data, func(b byte) bool { return b != 0 })
			if want := uint64(lead) + uint64(4*st.BlockInsts) + st.PaddingBytes; uint64(st.TargetBytes) != want {
				t.Errorf("%s: target %d B != lead %d + blocks %d + padding %d", name,
					st.TargetBytes, lead, 4*st.BlockInsts, st.PaddingBytes)
			}
		}
	}
}

func TestRewriteStats(t *testing.T) {
	_, _, res := rewriteAndRun(t, riscv.RV64GCV, true, Options{TargetISA: riscv.RV64GC})
	st := res.Stats
	if st.SourceInsts == 0 || st.ExtPct <= 0 {
		t.Errorf("source accounting empty: %+v", st)
	}
	if st.Sites == 0 || st.RedirectKeys == 0 || st.TargetBytes == 0 {
		t.Errorf("rewrite accounting empty: %+v", st)
	}
	if st.CodeSize == 0 || st.TotalInsts == 0 {
		t.Errorf("image accounting empty: %+v", st)
	}
}

func TestRewriteRejectsNoTarget(t *testing.T) {
	b, _ := buildVectorSum(riscv.RV64GCV, true)
	img, _ := b.Build("x", "main")
	if _, err := Rewrite(img, Options{}); err == nil {
		t.Error("rewrite with zero target ISA accepted")
	}
}

func TestBatchingReducesSites(t *testing.T) {
	b, _ := buildVectorSum(riscv.RV64GCV, true)
	img, _ := b.Build("x", "main")
	with, err := Rewrite(img, Options{TargetISA: riscv.RV64GC})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Rewrite(img, Options{TargetISA: riscv.RV64GC, DisableBatching: true})
	if err != nil {
		t.Fatal(err)
	}
	// Batching merges adjacent sources into one covered region, so normal
	// execution crosses one trampoline per batch instead of one per source.
	// The generated target code grows (members still cover their suffixes
	// for external entries), but the dynamic path shrinks.
	if with.Stats.BlockInsts <= without.Stats.BlockInsts {
		t.Errorf("batching did not grow covered regions: with=%d without=%d",
			with.Stats.BlockInsts, without.Stats.BlockInsts)
	}
	var instret [2]uint64
	for i, r := range []*Result{with, without} {
		cpu, _ := runImage(t, r.Image, r.Tables, riscv.RV64GC)
		if got := int64(cpu.X[riscv.A0]); got != vectorSumWant {
			t.Errorf("result %d, want %d", got, vectorSumWant)
		}
		instret[i] = cpu.Instret
	}
	if instret[0] >= instret[1] {
		t.Errorf("batching did not shorten the dynamic path: with=%d without=%d",
			instret[0], instret[1])
	}
}
