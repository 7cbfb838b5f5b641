package kernel

import (
	"encoding/binary"
	"reflect"
	"testing"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// exitWith emits "li a7, 93; ecall" exiting with the value already in a0.
func exitWith(b *asm.Builder) {
	b.Li(riscv.A7, SysExit)
	b.Ecall()
}

// buildVecProgram returns an RV64GCV image computing a deterministic vector
// result and exiting with it.
func buildVecProgram(t *testing.T, iters int64) *obj.Image {
	t.Helper()
	b := asm.NewBuilder(riscv.RV64GCV)
	b.Compress = true
	b.DataI64("vecA", []int64{1, 2, 3, 4})
	b.Zero("out", 64)
	b.Func("main")
	b.La(riscv.S2, "vecA")
	b.La(riscv.S3, "out")
	b.Li(riscv.S4, 0) // accumulator
	b.Li(riscv.S5, iters)
	b.Label("loop")
	b.Li(riscv.A3, 4)
	b.I(riscv.Inst{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.A3, Imm: riscv.VType(riscv.E64)})
	b.I(riscv.Inst{Op: riscv.VLE64V, Rd: 1, Rs1: riscv.S2})
	b.I(riscv.Inst{Op: riscv.VADDVV, Rd: 2, Rs1: 1, Rs2: 1})
	b.I(riscv.Inst{Op: riscv.VSE64V, Rd: 2, Rs1: riscv.S3})
	b.Load(riscv.LD, riscv.T1, riscv.S3, 24) // 2*4
	b.Op(riscv.ADD, riscv.S4, riscv.S4, riscv.T1)
	b.Imm(riscv.ADDI, riscv.S5, riscv.S5, -1)
	b.Bne(riscv.S5, riscv.Zero, "loop")
	b.Mv(riscv.A0, riscv.S4)
	exitWith(b)
	img, err := b.Build("vec", "main")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// chimeraVariants returns the original + CHBP-downgraded variant pair.
func chimeraVariants(t *testing.T, img *obj.Image) []Variant {
	t.Helper()
	res, err := chbp.Rewrite(img, chbp.Options{TargetISA: riscv.RV64GC})
	if err != nil {
		t.Fatal(err)
	}
	return []Variant{
		{ISA: riscv.RV64GCV, Image: img},
		{ISA: riscv.RV64GC, Image: res.Image},
	}
}

func TestProcessExit(t *testing.T) {
	img := buildVecProgram(t, 3)
	p, err := NewProcess("vec", []Variant{{ISA: riscv.RV64GCV, Image: img}})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := p.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusExited || !p.Exited {
		t.Fatalf("status %v, exited %v", st, p.Exited)
	}
	if p.ExitCode != 3*8 {
		t.Errorf("exit code %d, want 24", p.ExitCode)
	}
}

func TestProcessOnBaseCoreViaChimeraView(t *testing.T) {
	img := buildVecProgram(t, 3)
	p, err := NewProcess("vec", chimeraVariants(t, img))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MigrateTo(riscv.RV64GC); err != nil {
		t.Fatal(err)
	}
	_, st, err := p.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusExited || p.ExitCode != 24 {
		t.Fatalf("status %v exit %d, want exited/24", st, p.ExitCode)
	}
}

func TestMMViewsShareData(t *testing.T) {
	img := buildVecProgram(t, 1)
	p, err := NewProcess("vec", chimeraVariants(t, img))
	if err != nil {
		t.Fatal(err)
	}
	// A store through one view's data section must be visible in the other.
	dataSec := img.Section(obj.SecData)
	extView, _ := p.ViewFor(riscv.RV64GCV)
	baseView, _ := p.ViewFor(riscv.RV64GC)
	if extView == baseView {
		t.Fatal("expected distinct views")
	}
	if err := extView.mem.WriteUint64(dataSec.Addr, 0xABCD); err != nil {
		t.Fatal(err)
	}
	v, err := baseView.mem.ReadUint64(dataSec.Addr)
	if err != nil || v != 0xABCD {
		t.Errorf("shared data read %#x, %v", v, err)
	}
	// Code pages must NOT be shared: the views hold different binaries.
	extText, _ := extView.mem.Page(img.Entry)
	baseText, _ := baseView.mem.Page(img.Entry)
	if extText == baseText {
		t.Error("code frames shared between views")
	}
}

func TestMidTaskMigrationMovesVectorState(t *testing.T) {
	// The program loads vector state, yields, then stores it. Migrating at
	// the yield forces the vector context through the simulated register
	// file (§4.1).
	b := asm.NewBuilder(riscv.RV64GCV)
	b.DataI64("vecA", []int64{7, 8, 9, 10})
	b.Zero("out", 64)
	b.Func("main")
	b.La(riscv.S2, "vecA")
	b.La(riscv.S3, "out")
	b.Li(riscv.A3, 4)
	b.I(riscv.Inst{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.A3, Imm: riscv.VType(riscv.E64)})
	b.I(riscv.Inst{Op: riscv.VLE64V, Rd: 1, Rs1: riscv.S2})
	b.Li(riscv.A7, SysYield)
	b.Ecall()
	b.I(riscv.Inst{Op: riscv.VADDVV, Rd: 2, Rs1: 1, Rs2: 1})
	b.I(riscv.Inst{Op: riscv.VSE64V, Rd: 2, Rs1: riscv.S3})
	b.Load(riscv.LD, riscv.A0, riscv.S3, 0)
	exitWith(b)
	img, err := b.Build("mig", "main")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess("mig", chimeraVariants(t, img))
	if err != nil {
		t.Fatal(err)
	}
	// Run on the extension core until the yield.
	_, st, err := p.Run(10_000_000)
	if err != nil || st != StatusYield {
		t.Fatalf("first half: %v %v", st, err)
	}
	// Migrate to a base core and finish: the vadd/vse execute as translated
	// code against the spilled vector state.
	if err := p.MigrateTo(riscv.RV64GC); err != nil {
		t.Fatal(err)
	}
	_, st, err = p.Run(10_000_000)
	if err != nil || st != StatusExited {
		t.Fatalf("second half: %v %v (pc=%#x)", st, err, p.CPU.PC)
	}
	if p.ExitCode != 14 {
		t.Errorf("exit %d, want 14", p.ExitCode)
	}
	if p.Counters.Migrations != 1 {
		t.Errorf("migrations = %d", p.Counters.Migrations)
	}
}

// buildHiddenVecProgram returns an RV64GCV image whose vector block is
// reachable only through an indirect jump, so recursive disassembly never
// sees it and a base core must rewrite it at run time. It exits with 12.
func buildHiddenVecProgram(t *testing.T) *obj.Image {
	t.Helper()
	b := asm.NewBuilder(riscv.RV64GCV)
	b.DataI64("vecA", []int64{5, 6, 7, 8})
	b.Zero("out", 64)
	b.Func("main")
	b.La(riscv.T2, "hidden")
	b.Jr(riscv.T2)
	b.Label("hidden")
	b.La(riscv.S2, "vecA")
	b.La(riscv.S3, "out")
	b.Li(riscv.A3, 4)
	b.I(riscv.Inst{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.A3, Imm: riscv.VType(riscv.E64)})
	b.I(riscv.Inst{Op: riscv.VLE64V, Rd: 1, Rs1: riscv.S2})
	b.I(riscv.Inst{Op: riscv.VADDVV, Rd: 2, Rs1: 1, Rs2: 1})
	b.I(riscv.Inst{Op: riscv.VSE64V, Rd: 2, Rs1: riscv.S3})
	b.Load(riscv.LD, riscv.A0, riscv.S3, 8)
	exitWith(b)
	img, err := b.Build("hidden", "main")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestRuntimeRewriteOfHiddenInstruction(t *testing.T) {
	// A vector block reachable only through an indirect jump stays
	// unrecognized by recursive disassembly; executing it on a base core
	// must trigger the kernel's runtime rewriting (§4.1, §4.3).
	p, err := NewProcess("hidden", chimeraVariants(t, buildHiddenVecProgram(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MigrateTo(riscv.RV64GC); err != nil {
		t.Fatal(err)
	}
	_, st, err := p.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusExited || p.ExitCode != 12 {
		t.Fatalf("status %v exit %d, want exited/12", st, p.ExitCode)
	}
	if p.Counters.RuntimeRewrites == 0 {
		t.Error("no runtime rewrites recorded")
	}
	if p.Counters.Traps == 0 {
		t.Error("rewritten instructions should run through trap trampolines")
	}
}

// TestRuntimeRewriteStaysInItsProcess: each process parses its own tables
// from the image, so the trap rows one process's runtime rewrites add never
// show up in a sibling built from the same variants.
func TestRuntimeRewriteStaysInItsProcess(t *testing.T) {
	variants := chimeraVariants(t, buildHiddenVecProgram(t))
	procs := make([]*Process, 2)
	for i := range procs {
		p, err := NewProcess("hidden", variants)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.MigrateTo(riscv.RV64GC); err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	a, b := procs[0], procs[1]
	rows := func(p *Process) (int, int) {
		t := p.CurrentView().Tables()
		return len(t.Trap), len(t.ExitTrap)
	}
	trap0, exit0 := rows(b)
	if _, st, err := a.Run(50_000_000); err != nil || st != StatusExited || a.ExitCode != 12 {
		t.Fatalf("process A: status %v exit %d err %v", st, a.ExitCode, err)
	}
	if a.Counters.RuntimeRewrites == 0 {
		t.Fatal("process A made no runtime rewrites")
	}
	if trap, exit := rows(b); trap != trap0 || exit != exit0 {
		t.Errorf("process B's tables grew from %d/%d to %d/%d trap/exit rows while only A ran", trap0, exit0, trap, exit)
	}
	if _, st, err := b.Run(50_000_000); err != nil || st != StatusExited || b.ExitCode != 12 {
		t.Fatalf("process B: status %v exit %d err %v", st, b.ExitCode, err)
	}
	if b.Counters != a.Counters {
		t.Errorf("sibling counters differ:\n A %+v\n B %+v", a.Counters, b.Counters)
	}
}

func TestSignalHandlerObservesRestoredGP(t *testing.T) {
	img := buildVecProgram(t, 1)
	p, err := NewProcess("sig", chimeraVariants(t, img))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MigrateTo(riscv.RV64GC); err != nil {
		t.Fatal(err)
	}
	p.handlers[SIGUSR1] = 0x4242 // handler address; never executed here
	// Simulate the S1 moment of Fig. 10: the SMILE trampoline has clobbered
	// gp when the signal arrives.
	bogus := uint64(0xDEAD0000)
	p.CPU.X[riscv.GP] = bogus
	savedPC := p.CPU.PC
	p.deliverSignal(SIGUSR1)
	view, _ := p.ViewFor(riscv.RV64GC)
	if p.CPU.X[riscv.GP] != view.tables.GP {
		t.Errorf("handler sees gp=%#x, want ABI gp %#x", p.CPU.X[riscv.GP], view.tables.GP)
	}
	if p.CPU.PC != 0x4242 || p.CPU.X[riscv.A0] != SIGUSR1 {
		t.Errorf("handler entry pc=%#x a0=%d", p.CPU.PC, p.CPU.X[riscv.A0])
	}
	// sigreturn must restore the *real* (clobbered) gp so the interrupted
	// trampoline resumes correctly.
	p.CPU.X[riscv.A7] = SysSigreturn
	if _, err := p.syscall(); err != nil {
		t.Fatal(err)
	}
	if p.CPU.X[riscv.GP] != bogus || p.CPU.PC != savedPC {
		t.Errorf("sigreturn restored gp=%#x pc=%#x, want %#x/%#x",
			p.CPU.X[riscv.GP], p.CPU.PC, bogus, savedPC)
	}
}

func TestSignalHandlerEndToEnd(t *testing.T) {
	// The program registers a SIGUSR1 handler that bumps a counter in
	// memory; the test injects the signal asynchronously mid-run.
	b := asm.NewBuilder(riscv.RV64GCV)
	b.Zero("hits", 8)
	b.Func("main")
	b.La(riscv.A1, "handler")
	b.Li(riscv.A0, SIGUSR1)
	b.Li(riscv.A7, SysSigaction)
	b.Ecall()
	b.Li(riscv.S2, 0)
	b.Li(riscv.S3, 2_000)
	b.Label("loop")
	b.Imm(riscv.ADDI, riscv.S2, riscv.S2, 1)
	b.Blt(riscv.S2, riscv.S3, "loop")
	b.La(riscv.A0, "hits")
	b.Load(riscv.LD, riscv.A0, riscv.A0, 0)
	exitWith(b)
	b.Func("handler")
	// The handler uses gp-relative-style access: correctness depends on gp.
	b.La(riscv.T0, "hits")
	b.Load(riscv.LD, riscv.T1, riscv.T0, 0)
	b.Imm(riscv.ADDI, riscv.T1, riscv.T1, 1)
	b.Store(riscv.SD, riscv.T1, riscv.T0, 0)
	b.Li(riscv.A7, SysSigreturn)
	b.Ecall()
	img, err := b.Build("sig2", "main")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess("sig2", []Variant{{ISA: riscv.RV64GCV, Image: img}})
	if err != nil {
		t.Fatal(err)
	}
	// Run a little, inject, finish.
	if _, st, err := p.Run(500); err != nil || st != StatusRunning {
		t.Fatalf("prefix: %v %v", st, err)
	}
	p.Kill(SIGUSR1)
	if _, st, err := p.Run(50_000_000); err != nil || st != StatusExited {
		t.Fatalf("finish: %v %v", st, err)
	}
	if p.ExitCode != 1 {
		t.Errorf("handler ran %d times, want 1", p.ExitCode)
	}
	if p.Counters.SignalsTaken != 1 {
		t.Errorf("signals taken = %d", p.Counters.SignalsTaken)
	}
}

func TestUnhandledSignalKills(t *testing.T) {
	b := asm.NewBuilder(riscv.RV64GC)
	b.Func("main")
	b.Li(riscv.T0, 0x40) // unmapped
	b.Load(riscv.LD, riscv.T1, riscv.T0, 0)
	exitWith(b)
	img, err := b.Build("crash", "main")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess("crash", []Variant{{ISA: riscv.RV64GC, Image: img}})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := p.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusExited || p.ExitCode != 128+SIGSEGV {
		t.Errorf("status %v exit %d, want kill by SIGSEGV", st, p.ExitCode)
	}
}

func TestWriteSyscall(t *testing.T) {
	b := asm.NewBuilder(riscv.RV64GC)
	b.Data("msg", []byte("hello, chimera\n"))
	b.Func("main")
	b.Li(riscv.A0, 1)
	b.La(riscv.A1, "msg")
	b.Li(riscv.A2, 15)
	b.Li(riscv.A7, SysWrite)
	b.Ecall()
	b.Li(riscv.A0, 0)
	exitWith(b)
	img, err := b.Build("hello", "main")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess("hello", []Variant{{ISA: riscv.RV64GC, Image: img}})
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err := p.Run(10000); err != nil || st != StatusExited {
		t.Fatalf("%v %v", st, err)
	}
	if string(p.Output) != "hello, chimera\n" {
		t.Errorf("output %q", p.Output)
	}
}

func TestSchedulerFAM(t *testing.T) {
	m := NewMachine(2, 2)
	s := NewScheduler(m)
	s.SliceInstr = 10_000
	// FAM tasks: single ext binary, dispatched to the base pool so they
	// fault and migrate.
	for i := 0; i < 4; i++ {
		img := buildVecProgram(t, 2)
		p, err := NewProcess("fam", []Variant{{ISA: riscv.RV64GCV, Image: img}})
		if err != nil {
			t.Fatal(err)
		}
		p.FAM = true
		s.Submit(&Task{Proc: p, NeedsExt: false})
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrated == 0 {
		t.Error("no FAM migrations happened")
	}
	for _, task := range res.Tasks {
		if task.Proc.ExitCode != 16 {
			t.Errorf("task %d exit %d, want 16", task.ID, task.Proc.ExitCode)
		}
		if !task.RanOnExt {
			t.Errorf("task %d never reached an extension core", task.ID)
		}
	}
}

func TestSchedulerChimeraStealsAcrossPools(t *testing.T) {
	m := NewMachine(2, 2)
	s := NewScheduler(m)
	s.SliceInstr = 5_000
	// All tasks are extension tasks; with Chimera variants the base pool
	// must steal and run downgraded binaries.
	for i := 0; i < 8; i++ {
		img := buildVecProgram(t, 5)
		p, err := NewProcess("chim", chimeraVariants(t, img))
		if err != nil {
			t.Fatal(err)
		}
		s.Submit(&Task{Proc: p, NeedsExt: true})
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	ranOnBase := 0
	for _, task := range res.Tasks {
		if task.Proc.ExitCode != 40 {
			t.Errorf("task %d exit %d, want 40", task.ID, task.Proc.ExitCode)
		}
		if !task.RanOnExt {
			ranOnBase++
		}
	}
	if ranOnBase == 0 {
		t.Error("base pool never stole extension tasks")
	}
	if res.CPUTime == 0 || res.Latency == 0 || res.Latency > res.CPUTime {
		t.Errorf("accounting: cpu=%d latency=%d", res.CPUTime, res.Latency)
	}
}

// TestCountersAddCoversEveryField: Counters.Add sums each field, so a new
// counter cannot silently drop out of the service's run totals.
func TestCountersAddCoversEveryField(t *testing.T) {
	var one Counters
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	var sum Counters
	sum.Add(one)
	sum.Add(one)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if g, want := got.Field(i).Uint(), 2*uint64(i+1); g != want {
			t.Errorf("%s = %d after two Adds, want %d", got.Type().Field(i).Name, g, want)
		}
	}
}

// TestDecodeInStraddlesPages decodes, through the kernel's fault-path
// decoder, a 32-bit instruction whose upper half sits on the next page,
// and a compressed one in the last two bytes of the mapped range.
func TestDecodeInStraddlesPages(t *testing.T) {
	const base = 0x7000_0000
	mem := emu.NewMemory()
	mem.Map(base, 2*obj.PageSize, obj.PermRX)
	w := riscv.MustEncode(riscv.Inst{Op: riscv.VADDVV, Rd: 2, Rs1: 1, Rs2: 3})
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], w)
	if b[2] == b[3] {
		t.Fatal("test instruction's upper bytes are equal; pick another")
	}
	pc := uint64(base + obj.PageSize - 2)
	mem.Poke(pc, b[:])
	if in, err := decodeIn(mem, pc); err != nil || riscv.MustEncode(in) != w {
		t.Errorf("straddling instruction decoded as %v (%v), want %#x", in, err, w)
	}
	cnop, _ := riscv.EncodeCompressed(riscv.Inst{Op: riscv.ADDI})
	end := uint64(base + 2*obj.PageSize - 2)
	binary.LittleEndian.PutUint16(b[:], cnop)
	mem.Poke(end, b[:2])
	if in, err := decodeIn(mem, end); err != nil || in.Len != 2 {
		t.Errorf("compressed instruction at the end of the mapping: %v, %v", in, err)
	}
	if _, err := decodeIn(mem, base+2*obj.PageSize); err == nil {
		t.Error("decoded an unmapped pc")
	}
}
