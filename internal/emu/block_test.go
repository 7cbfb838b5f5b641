package emu

import (
	"encoding/binary"
	"reflect"
	"testing"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

func enc(t *testing.T, insts ...riscv.Inst) []byte {
	t.Helper()
	out := make([]byte, 0, 4*len(insts))
	var w [4]byte
	for _, in := range insts {
		binary.LittleEndian.PutUint32(w[:], riscv.MustEncode(in))
		out = append(out, w[:]...)
	}
	return out
}

func codeCPU(t *testing.T, text []byte) *CPU {
	t.Helper()
	mem := NewMemory()
	mem.Map(obj.TextBase, uint64(len(text)), obj.PermRX)
	mem.write(obj.TextBase, text)
	cpu := NewCPU(mem, riscv.RV64GC)
	cpu.PC = obj.TextBase
	return cpu
}

// codeFrame returns an unmapped executable frame holding text, for the
// remap tests to install with MapPage.
func codeFrame(text []byte) *Page {
	p := &Page{data: new([obj.PageSize]byte), Perm: obj.PermRX}
	copy(p.data[:], text)
	return p
}

// TestPokePartialWriteAtomic is the regression test for the multi-page Poke
// bug: a poke whose second page is unmapped used to write the first page's
// bytes and return false without bumping gen, leaving decoded caches
// serving stale instructions over silently-patched bytes. Poke must now be
// all-or-nothing.
func TestPokePartialWriteAtomic(t *testing.T) {
	mem := NewMemory()
	mem.Map(0x1000, obj.PageSize, obj.PermRW) // second page unmapped
	genBefore := mem.Gen()

	data := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	if mem.Poke(0x1000+obj.PageSize-2, data) {
		t.Fatal("poke spanning into unmapped page succeeded")
	}
	if mem.Gen() != genBefore {
		t.Errorf("failed poke bumped gen: %d -> %d", genBefore, mem.Gen())
	}
	var got [2]byte
	if _, ok := mem.Read(0x1000+obj.PageSize-2, got[:]); !ok {
		t.Fatal("read back failed")
	}
	if got != [2]byte{} {
		t.Errorf("failed poke wrote first-page bytes: %x", got)
	}
}

// TestPokeInsideCachedBlock patches an instruction in the *middle* of a hot
// cached block; the next dispatch must decode the new bytes.
func TestPokeInsideCachedBlock(t *testing.T) {
	// loop: addi a0,a0,1 ; addi a0,a0,1 ; addi a0,a0,1 ; j loop
	cpu := codeCPU(t, enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: -12},
	))
	if stop := cpu.Run(400); stop.Kind != StopLimit {
		t.Fatalf("warmup stop: %+v", stop)
	}
	if cpu.Blocks.Built == 0 || cpu.Blocks.Hits == 0 {
		t.Fatalf("block cache not exercised: %+v", cpu.Blocks)
	}

	// Patch the middle addi to add 50.
	patch := enc(t, riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 50})
	if !cpu.Mem.Poke(obj.TextBase+4, patch) {
		t.Fatal("poke failed")
	}
	cpu.PC = obj.TextBase
	before := cpu.X[riscv.A0]
	if stop := cpu.Run(4); stop.Kind != StopLimit {
		t.Fatalf("stop after poke: %+v", stop)
	}
	if got := cpu.X[riscv.A0] - before; got != 52 {
		t.Errorf("patched iteration added %d, want 52 (stale block?)", got)
	}
	if cpu.Blocks.Invalidations == 0 {
		t.Errorf("no invalidation counted after poke: %+v", cpu.Blocks)
	}
}

// TestMapPageInvalidatesBlock remaps the text page to a different frame (the
// MMView swap primitive) and checks the hart executes the new frame's code.
func TestMapPageInvalidatesBlock(t *testing.T) {
	cpu := codeCPU(t, enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: -4},
	))
	if stop := cpu.Run(100); stop.Kind != StopLimit {
		t.Fatalf("warmup stop: %+v", stop)
	}

	// A fresh frame with the same loop shape but a different increment.
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
		t.Errorf("remapped iteration added %d, want 7 (stale block?)", got)
	}
}

// TestSharedMemoryTwoCPUs runs two harts over one address space: a poke
// made while hart A has the block hot must also be observed by hart B (and
// by A), each through its own block cache. The harts are interleaved, not
// concurrent — Memory is a single simulated socket, not goroutine-safe.
func TestSharedMemoryTwoCPUs(t *testing.T) {
	mem := NewMemory()
	text := enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 2},
		riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: -8},
	)
	mem.Map(obj.TextBase, uint64(len(text)), obj.PermRX)
	mem.write(obj.TextBase, text)

	a := NewCPU(mem, riscv.RV64GC)
	b := NewCPU(mem, riscv.RV64GC)
	a.PC, b.PC = obj.TextBase, obj.TextBase

	// Warm both block caches, interleaved.
	for i := 0; i < 10; i++ {
		if stop := a.Run(30); stop.Kind != StopLimit {
			t.Fatalf("hart A stop: %+v", stop)
		}
		if stop := b.Run(30); stop.Kind != StopLimit {
			t.Fatalf("hart B stop: %+v", stop)
		}
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

// TestMidBlockFaultPrecision faults on the third instruction of a
// straight-line block and requires the exact architectural state stepping
// produces: fault PC/addr/kind/message, Instret, Cycles, registers.
func TestMidBlockFaultPrecision(t *testing.T) {
	text := enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A1, Rs1: riscv.A1, Imm: 2},
		riscv.Inst{Op: riscv.SD, Rs1: riscv.A3, Rs2: riscv.A0, Imm: 0}, // a3 unmapped
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A2, Rs1: riscv.A2, Imm: 4},
		riscv.Inst{Op: riscv.EBREAK},
	)
	run := func(interp bool) *CPU {
		cpu := codeCPU(t, text)
		cpu.Interp = interp
		cpu.X[riscv.A3] = 0xdead0000
		stop := cpu.Run(100)
		if stop.Kind != StopFault {
			t.Fatalf("interp=%v: stop %+v, want fault", interp, stop)
		}
		f := stop.Fault
		if f.Kind != FaultAccess || f.PC != obj.TextBase+8 || f.Addr != 0xdead0000 {
			t.Errorf("interp=%v: fault %v", interp, f)
		}
		return cpu
	}
	ref := run(true)
	got := run(false)
	if got.PC != ref.PC || got.Instret != ref.Instret || got.Cycles != ref.Cycles {
		t.Errorf("block fault state PC=%#x Instret=%d Cycles=%d, stepping PC=%#x Instret=%d Cycles=%d",
			got.PC, got.Instret, got.Cycles, ref.PC, ref.Instret, ref.Cycles)
	}
	if got.X != ref.X {
		t.Errorf("register files diverge after fault")
	}
}

// TestBlockFaultOnFirstInstruction: when even the first instruction of a
// would-be block can't run (fetch fault), the engine must fall back to
// stepping and raise the identical precise fault.
func TestBlockFaultOnFirstInstruction(t *testing.T) {
	for _, interp := range []bool{true, false} {
		mem := NewMemory()
		mem.Map(obj.TextBase, obj.PageSize, obj.PermR) // not executable
		cpu := NewCPU(mem, riscv.RV64GC)
		cpu.Interp = interp
		cpu.PC = obj.TextBase
		stop := cpu.Run(10)
		if stop.Kind != StopFault || stop.Fault.Kind != FaultAccess || stop.Fault.PC != obj.TextBase {
			t.Errorf("interp=%v: stop %+v, want fetch fault at %#x", interp, stop, obj.TextBase)
		}
	}
}

// TestBlockStatsCounters sanity-checks the counters the service exports.
// The trace tier is pinned off: with it on, a hot loop dispatches as an
// unrolled trace and RetiredPerDispatch is legitimately much higher
// (trace_test.go covers that shape).
func TestBlockStatsCounters(t *testing.T) {
	cpu := codeCPU(t, enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: -8},
	))
	cpu.TraceThreshold = 0
	if stop := cpu.Run(300); stop.Kind != StopLimit {
		t.Fatalf("stop: %+v", stop)
	}
	s := cpu.Blocks
	if s.Built == 0 || s.Hits == 0 || s.Dispatches == 0 {
		t.Fatalf("counters not moving: %+v", s)
	}
	if s.Retired != cpu.Instret {
		t.Errorf("Retired=%d, Instret=%d", s.Retired, cpu.Instret)
	}
	if r := s.RetiredPerDispatch(); r < 2.5 || r > 3.5 {
		t.Errorf("RetiredPerDispatch=%.2f, want ~3 for a 3-inst loop", r)
	}
	if hr := s.HitRatio(); hr < 0.9 {
		t.Errorf("HitRatio=%.3f, want ~1 for a hot loop", hr)
	}
}

// TestBlockStatsAddCoversEveryField: BlockStats.Add sums each field, so a
// new tally cannot silently drop out of the service's run totals.
func TestBlockStatsAddCoversEveryField(t *testing.T) {
	var one BlockStats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	var sum BlockStats
	sum.Add(one)
	sum.Add(one)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if g, want := got.Field(i).Uint(), 2*uint64(i+1); g != want {
			t.Errorf("%s = %d after two Adds, want %d", got.Type().Field(i).Name, g, want)
		}
	}
}
