package emu

import (
	"reflect"
	"testing"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// arenaGuest is one guest of the arena tests: an image and the ISA of the
// hart that runs it.
type arenaGuest struct {
	name string
	img  *obj.Image
	isa  riscv.Ext
}

// runToEcall runs g on a fresh hart over a fresh address space, with a
// lent (nil: none), until the guest's exit ecall.
func runToEcall(t *testing.T, g arenaGuest, threshold uint32, a *Arena) *CPU {
	t.Helper()
	mem := NewMemoryFor(g.img)
	mem.MapImage(g.img)
	cpu := NewCPU(mem, g.isa)
	cpu.TraceThreshold = threshold
	cpu.Reset(g.img)
	cpu.Borrow(a)
	for i := 0; i < 1_000_000; i++ {
		switch stop := cpu.Run(997); stop.Kind {
		case StopEcall:
			return cpu
		case StopLimit:
		default:
			t.Fatalf("%s: stop %+v", g.name, stop)
		}
	}
	t.Fatalf("%s did not exit", g.name)
	return nil
}

// sameMemory requires bit-identical contents and permissions of every page
// either address space maps, lazy region pages included.
func sameMemory(t *testing.T, tag string, a, b *Memory) {
	t.Helper()
	pns := make(map[uint64]bool)
	for _, m := range []*Memory{a, b} {
		for pn := range m.pages {
			pns[pn] = true
		}
		if r := m.lazy; r != nil {
			for pn := r.base; pn <= r.last(); pn++ {
				pns[pn] = true
			}
		}
	}
	for pn := range pns {
		pa, oka := a.page(pn)
		pb, okb := b.page(pn)
		if oka != okb {
			t.Fatalf("%s: page %#x mapped %v/%v", tag, pn<<12, oka, okb)
		}
		if oka && (pa.Perm != pb.Perm || *pa.data != *pb.data) {
			t.Fatalf("%s: page %#x differs", tag, pn<<12)
		}
	}
}

// checkParked requires every translation parked on a to carry no identity
// of its last owner: blocks and traces hold nothing but empty backing
// arrays, a trace's frame array points at no frame, and every table is
// empty.
func checkParked(t *testing.T, tag string, a *Arena) {
	t.Helper()
	for _, b := range a.blocks {
		cp := *b
		if len(cp.uops) != 0 {
			t.Fatalf("%s: parked block holds %d µops", tag, len(cp.uops))
		}
		cp.uops = nil
		if !reflect.DeepEqual(cp, block{}) {
			t.Fatalf("%s: parked block keeps identity: %+v", tag, cp)
		}
	}
	for _, tr := range a.traces {
		cp := *tr
		if len(cp.uops)+len(cp.pages)+len(cp.pgens)+len(cp.stitches) != 0 {
			t.Fatalf("%s: parked trace holds µops, frames or stitches", tag)
		}
		for _, p := range cp.pages[:cap(cp.pages)] {
			if p != nil {
				t.Fatalf("%s: parked trace still points at a frame", tag)
			}
		}
		cp.uops, cp.pages, cp.pgens, cp.stitches = nil, nil, nil, nil
		if !reflect.DeepEqual(cp, trace{}) {
			t.Fatalf("%s: parked trace keeps identity: %+v", tag, cp)
		}
	}
	for _, tb := range a.tables {
		if *tb != (blockTable{}) {
			t.Fatalf("%s: parked block-cache table is not empty", tag)
		}
	}
}

// TestArenaHygiene runs a vector matmul, a scalar fib and the matmul again
// back to back on one arena, at the trace-promotion threshold of 2 and at
// the default: each run must end bit-identical to the same guest on a
// fresh hart (registers, counters, translation statistics and memory),
// each Release must park every translation with its identity cleared, and
// the later runs must build from what the earlier ones left.
func TestArenaHygiene(t *testing.T) {
	mm, err := workload.Matmul(12, true, true)
	if err != nil {
		t.Fatal(err)
	}
	fib, err := workload.Fibonacci(40, riscv.RV64GC, true)
	if err != nil {
		t.Fatal(err)
	}
	guests := []arenaGuest{
		{"matmul/rv64gcv", mm, riscv.RV64GCV},
		{"fib/rv64gc", fib, riscv.RV64GC},
		{"matmul/rv64gcv again", mm, riscv.RV64GCV},
	}
	for _, threshold := range []uint32{2, DefaultTraceThreshold} {
		var a Arena
		for i, g := range guests {
			parked := len(a.blocks) + len(a.traces) + len(a.tables)
			got := runToEcall(t, g, threshold, &a)
			want := runToEcall(t, g, threshold, nil)
			tag := g.name
			sameState(t, tag, got, want)
			if got.V != want.V || got.VL != want.VL || got.VT != want.VT {
				t.Fatalf("%s: vector state diverges", tag)
			}
			if got.Blocks != want.Blocks {
				t.Fatalf("%s: block stats %+v, fresh hart %+v", tag, got.Blocks, want.Blocks)
			}
			sameMemory(t, tag, got.Mem, want.Mem)
			if i > 0 && len(a.blocks)+len(a.traces)+len(a.tables) >= parked {
				t.Fatalf("%s built nothing from the arena's %d parked translations", tag, parked)
			}
			got.Release()
			if got.bcache != nil || got.arena != nil || len(got.free.blocks)+len(got.free.traces) != 0 {
				t.Fatalf("%s: Release left the hart holding translations or the arena", tag)
			}
			if len(a.blocks) == 0 || len(a.tables) != 1 || (threshold == 2 && len(a.traces) == 0) {
				t.Fatalf("%s: arena holds %d blocks, %d traces, %d tables after Release",
					tag, len(a.blocks), len(a.traces), len(a.tables))
			}
			checkParked(t, tag, &a)
		}
	}
}

// TestReleaseWithoutArena checks that Release on a hart that borrowed
// nothing keeps its translations warm.
func TestReleaseWithoutArena(t *testing.T) {
	fib, err := workload.Fibonacci(5, riscv.RV64GC, true)
	if err != nil {
		t.Fatal(err)
	}
	cpu := runToEcall(t, arenaGuest{"fib", fib, riscv.RV64GC}, 2, nil)
	built := cpu.Blocks.Built
	cpu.Release()
	if cpu.bcache == nil {
		t.Fatal("Release without an arena dropped the block cache")
	}
	cpu.Reset(fib)
	if stop := cpu.Run(1 << 20); stop.Kind != StopEcall {
		t.Fatalf("stop %+v", stop)
	}
	if cpu.Blocks.Built != built {
		t.Errorf("rerun built %d blocks, want none", cpu.Blocks.Built-built)
	}
}
