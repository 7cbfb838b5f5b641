package dis

import (
	"testing"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

func buildLoop(t *testing.T, compress bool) (*Result, uint64) {
	t.Helper()
	b := asm.NewBuilder(riscv.RV64GC)
	b.Compress = compress
	b.Func("main")
	b.Li(riscv.A0, 10)
	b.Li(riscv.A1, 0)
	b.Label("loop")
	b.Op(riscv.ADD, riscv.A1, riscv.A1, riscv.A0)
	b.Imm(riscv.ADDI, riscv.A0, riscv.A0, -1)
	b.Bne(riscv.A0, riscv.Zero, "loop")
	b.Call("leaf")
	b.Ecall()
	b.Func("leaf")
	b.Imm(riscv.ADDI, riscv.A0, riscv.A0, 1)
	b.Ret()
	img, err := b.Build("t", "main")
	if err != nil {
		t.Fatal(err)
	}
	return Disassemble(img), img.Entry
}

func TestDisassembleCoversReachableCode(t *testing.T) {
	for _, compress := range []bool{false, true} {
		res, entry := buildLoop(t, compress)
		if _, ok := res.At(entry); !ok {
			t.Fatal("entry not recognized")
		}
		if len(res.Insts) < 8 {
			t.Errorf("compress=%v: recognized only %d instructions", compress, len(res.Insts))
		}
		// Two indirect transfers: the auipc/jalr call pair and leaf's ret.
		if len(res.IndirectJumps) != 2 {
			t.Errorf("compress=%v: indirect jumps = %v", compress, res.IndirectJumps)
		}
		if len(res.Calls) != 1 {
			t.Errorf("compress=%v: calls = %v", compress, res.Calls)
		}
		// Addresses must be strictly increasing with no overlaps.
		for i := 1; i < len(res.Order); i++ {
			prev := res.Order[i-1]
			if prev+uint64(res.Insts[i-1].Len) > res.Order[i] {
				t.Fatalf("overlapping instructions at %#x/%#x", prev, res.Order[i])
			}
		}
	}
}

func TestDisassembleStopsAtIndirectTargets(t *testing.T) {
	// Code reachable only through a register-indirect jump must stay
	// unrecognized — the incompleteness the paper's runtime handles (§4.1).
	b := asm.NewBuilder(riscv.RV64GC)
	b.Func("main")
	b.La(riscv.T0, "hidden")
	b.Jr(riscv.T0)
	b.Label("hidden")
	b.Li(riscv.A0, 99)
	b.Ecall()
	img, err := b.Build("t", "main")
	if err != nil {
		t.Fatal(err)
	}
	res := Disassemble(img)
	hidden, _ := img.Lookup("hidden")
	_ = hidden
	// "hidden" is a label, not a function symbol, so it is not a root.
	var sawEcall bool
	for _, in := range res.Insts {
		if in.Op == riscv.ECALL {
			sawEcall = true
		}
	}
	if sawEcall {
		t.Error("code behind an indirect jump was recognized; recursion should not reach it")
	}
	if res.Coverage(img) >= 1.0 {
		t.Error("coverage should be incomplete")
	}
}

func TestDisassembleRecordsUndecodable(t *testing.T) {
	b := asm.NewBuilder(riscv.RV64GC)
	b.Func("main")
	b.Nop()
	b.Raw(0x0000001F) // reserved wide prefix on the straight-line path
	img, err := b.Build("t", "main")
	if err != nil {
		t.Fatal(err)
	}
	res := Disassemble(img)
	if len(res.Undecodable) != 1 {
		t.Errorf("undecodable = %v", res.Undecodable)
	}
}

func TestFallthrough(t *testing.T) {
	res, entry := buildLoop(t, false)
	i, ok := res.Index(entry)
	if !ok {
		t.Fatal("entry not recognized")
	}
	next, ok := res.Fallthrough(i)
	if !ok {
		t.Fatalf("Fallthrough(entry) not recognized")
	}
	if got := res.Order[next]; got != entry+4 {
		t.Errorf("fallthrough = %#x, want %#x", got, entry+4)
	}
	if _, ok := res.Index(0xdead); ok {
		t.Error("Index of unknown address succeeded")
	}
	// The last instruction is leaf's ret: nothing recognized follows it.
	if j, ok := res.Fallthrough(len(res.Order) - 1); ok {
		t.Errorf("Fallthrough(last) = %#x, want none", res.Order[j])
	}
}

// TestRootsDeduplicated checks that an entry point which is also a function
// symbol, and extra roots repeating either, appear once in Roots.
func TestRootsDeduplicated(t *testing.T) {
	res, entry := buildLoop(t, false)
	for i := 1; i < len(res.Roots); i++ {
		if res.Roots[i-1] >= res.Roots[i] {
			t.Fatalf("Roots not strictly increasing: %#x", res.Roots)
		}
	}
	if len(res.Roots) != 2 {
		t.Errorf("Roots = %#x, want main (the entry) and leaf once each", res.Roots)
	}
	ext := res.Extend([]uint64{entry, res.Roots[1], entry})
	if ext != res {
		t.Errorf("Extend with known roots built a new Result: Roots %#x", ext.Roots)
	}
}
