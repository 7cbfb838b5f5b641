package cfg

import (
	"testing"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

func buildGraph(t *testing.T) (*Graph, map[string]uint64) {
	t.Helper()
	b := asm.NewBuilder(riscv.RV64GC)
	b.Func("main")
	b.Li(riscv.A0, 5)
	b.Label("loop")
	b.Imm(riscv.ADDI, riscv.A0, riscv.A0, -1)
	b.Bne(riscv.A0, riscv.Zero, "loop")
	b.Call("leaf")
	b.Ecall()
	b.Func("leaf")
	b.Ret()
	img, err := b.Build("t", "main")
	if err != nil {
		t.Fatal(err)
	}
	g := Build(dis.Disassemble(img))
	labels := map[string]uint64{}
	for _, name := range []string{"main", "leaf"} {
		s, ok := img.Lookup(name)
		if !ok {
			t.Fatal(name)
		}
		labels[name] = s.Addr
	}
	return g, labels
}

func TestBasicBlocks(t *testing.T) {
	g, labels := buildGraph(t)
	if len(g.Blocks) < 4 {
		t.Fatalf("blocks = %d, want >= 4", len(g.Blocks))
	}
	// The loop block must have itself as a successor.
	var loopBlock *Block
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s == b.Start {
				loopBlock = b
			}
		}
	}
	if loopBlock == nil {
		t.Fatal("no self-loop block found")
	}
	// leaf ends in ret: indirect, no successors.
	leaf, ok := g.Blocks[labels["leaf"]]
	if !ok {
		t.Fatal("leaf is not a block leader")
	}
	if !leaf.HasIndirect || len(leaf.Succs) != 0 {
		t.Errorf("leaf block: indirect=%v succs=%v", leaf.HasIndirect, leaf.Succs)
	}
}

func TestCallSiteBlocks(t *testing.T) {
	g, _ := buildGraph(t)
	var callBlock *Block
	for _, b := range g.Blocks {
		if b.IsCallSite {
			callBlock = b
		}
	}
	if callBlock == nil {
		t.Fatal("no call-site block")
	}
	// Call fallthrough models the return.
	if len(callBlock.Succs) != 1 {
		t.Errorf("call block succs = %v", callBlock.Succs)
	}
}

func TestBlockOfAndPreds(t *testing.T) {
	g, labels := buildGraph(t)
	for i, start := range g.BlockOf {
		addr := g.Dis.Order[i]
		b := g.Blocks[start]
		found := false
		for _, a := range b.Addrs {
			if a == addr {
				found = true
			}
		}
		if !found {
			t.Fatalf("BlockOf[%#x] = %#x but block does not contain it", addr, start)
		}
	}
	preds := g.Preds()
	// The loop head has two predecessors: entry fallthrough and itself.
	var loopStart uint64
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s == b.Start {
				loopStart = s
			}
		}
	}
	if n := len(preds[loopStart]); n != 2 {
		t.Errorf("loop head preds = %d, want 2", n)
	}
	if _, ok := g.BlockContaining(labels["main"]); !ok {
		t.Error("BlockContaining(main) failed")
	}
	if _, ok := g.BlockContaining(0xdead); ok {
		t.Error("BlockContaining of junk succeeded")
	}
}

func TestBlockEnd(t *testing.T) {
	g, labels := buildGraph(t)
	leaf := g.Blocks[labels["leaf"]]
	end := leaf.End(g.Dis)
	if end != labels["leaf"]+4 { // single ret
		t.Errorf("leaf end = %#x, want %#x", end, labels["leaf"]+4)
	}
}
