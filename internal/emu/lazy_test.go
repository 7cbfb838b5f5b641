package emu

import (
	"testing"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// stackViews maps a small guest into a first address space and shares its
// stack into a second, the way a two-view process is built.
func stackViews(t *testing.T) (first, later *Memory) {
	t.Helper()
	img, err := workload.Fibonacci(3, riscv.RV64GC, true)
	if err != nil {
		t.Fatal(err)
	}
	first = NewMemoryFor(img)
	first.MapImage(img)
	later = NewMemoryFor(img)
	later.ShareFrom(first, obj.StackTop-obj.StackSize, obj.StackSize)
	return first, later
}

// TestLazyStackMapsNoHeaders checks that mapping an image costs no page
// headers or map entries for its stack, and that a later view shares the
// region itself.
func TestLazyStackMapsNoHeaders(t *testing.T) {
	first, later := stackViews(t)
	for _, m := range []*Memory{first, later} {
		for pn := range m.pages {
			if pn >= pageOf(obj.StackTop-obj.StackSize) {
				t.Fatalf("stack page %#x has a map entry", pn<<12)
			}
		}
	}
	if first.lazy == nil || later.lazy != first.lazy {
		t.Fatal("the later view does not share the first view's stack region")
	}
	for i, p := range first.lazy.pages {
		if p != nil {
			t.Fatalf("stack page %d has a header before any lookup", i)
		}
	}
}

// TestLazyStackFrameIdentity checks that a stack address resolves to the
// same header in both views whichever view looks first, and that the
// header reads through the zero frame until written.
func TestLazyStackFrameIdentity(t *testing.T) {
	first, later := stackViews(t)
	for i, a := range []uint64{obj.StackTop - 8, obj.StackTop - obj.StackSize, obj.StackTop - 5*obj.PageSize} {
		m, n := first, later
		if i%2 == 1 {
			m, n = later, first
		}
		pm, ok := m.Page(a)
		if !ok {
			t.Fatalf("%#x unmapped", a)
		}
		if pn, _ := n.Page(a); pn != pm {
			t.Fatalf("the views resolve %#x to different headers", a)
		}
		if pm.data != &zeroFrame || pm.Perm != obj.PermRW {
			t.Fatalf("%#x: fresh header has bytes %v, perm %v", a, pm.data != &zeroFrame, pm.Perm)
		}
	}
	for _, a := range []uint64{obj.StackTop, obj.StackTop - obj.StackSize - 1} {
		if _, ok := first.Page(a); ok {
			t.Errorf("%#x, outside the stack, is mapped", a)
		}
	}
}

// TestLazyStackFirstTouchKeepsTranslations warms a hart's translations,
// touches stack pages nothing has looked up before through a guest store,
// Poke and Page, and reruns the guest: no mapping generation moves and no
// translation is rebuilt or invalidated.
func TestLazyStackFirstTouchKeepsTranslations(t *testing.T) {
	fib, err := workload.Fibonacci(5, riscv.RV64GC, true)
	if err != nil {
		t.Fatal(err)
	}
	cpu := runToEcall(t, arenaGuest{"fib", fib, riscv.RV64GC}, 2, nil)
	rerun := func() {
		cpu.Reset(fib)
		if stop := cpu.Run(1 << 20); stop.Kind != StopEcall {
			t.Fatalf("rerun stop %+v", stop)
		}
	}
	rerun() // the second run promotes what the first left warm
	mem := cpu.Mem
	mapGen, stats := mem.MapGen(), cpu.Blocks
	low := obj.StackTop - obj.StackSize
	if mem.lazy.pages[0] != nil || mem.lazy.pages[1] != nil || mem.lazy.pages[2] != nil {
		t.Fatal("fib touched the lowest stack pages")
	}
	if !mem.storeU64(low, 1) || !mem.Poke(low+obj.PageSize, []byte{2}) {
		t.Fatal("first-touch store or Poke failed")
	}
	if _, ok := mem.Page(low + 2*obj.PageSize); !ok {
		t.Fatal("first-touch lookup failed")
	}
	if mem.MapGen() != mapGen {
		t.Fatalf("first touch moved the mapping generation %d -> %d", mapGen, mem.MapGen())
	}
	rerun()
	if cpu.Blocks.Built != stats.Built || cpu.Blocks.TracesBuilt != stats.TracesBuilt ||
		cpu.Blocks.Invalidations != stats.Invalidations {
		t.Errorf("rerun after first touch: %+v, before %+v", cpu.Blocks, stats)
	}
}

// TestLazyStackPeekPokeCloneRestore drives Peek, Poke, Clone and Restore
// over the shared stack region, touched and untouched pages alike.
func TestLazyStackPeekPokeCloneRestore(t *testing.T) {
	first, later := stackViews(t)
	top := obj.StackTop - 8
	var b [8]byte
	if !first.Peek(obj.StackTop-2*obj.PageSize, b[:]) || b != [8]byte{} {
		t.Fatalf("Peek of an untouched stack page: %v", b)
	}
	if first.Peek(top, make([]byte, 16)) || first.Poke(top, make([]byte, 16)) {
		t.Fatal("a range past the stack top passed the mapped check")
	}
	if !later.Poke(top, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatal("Poke into an untouched stack page failed")
	}
	if got, err := first.ReadUint64(top); err != nil || got != 0x0807060504030201 {
		t.Fatalf("Poke through the later view: first view reads %#x, %v", got, err)
	}
	if first.DirtyPages()+later.DirtyPages() != 0 {
		t.Fatal("Poke marked a page dirty")
	}

	c := first.Clone()
	if c.lazy == nil || c.lazy == first.lazy {
		t.Fatal("Clone shares the stack region")
	}
	if got, _ := c.ReadUint64(top); got != 0x0807060504030201 {
		t.Fatalf("clone reads %#x at the stack top", got)
	}
	if c.lazy.pages[0] != nil {
		t.Error("Clone made a header for an untouched stack page")
	}
	if err := c.WriteUint64(top, 7); err != nil {
		t.Fatal(err)
	}
	if got, _ := later.ReadUint64(top); got != 0x0807060504030201 {
		t.Errorf("store into the clone shows in the original views: %#x", got)
	}

	low := obj.StackTop - obj.StackSize + 64
	if !later.storeU64(low, 0xAB) {
		t.Fatal("guest store into an untouched stack page failed")
	}
	if later.DirtyPages() != 1 || first.DirtyPages() != 0 {
		t.Fatalf("dirty lists: first %d, later %d; want 0, 1", first.DirtyPages(), later.DirtyPages())
	}
	var restored []uint64
	later.Restore(func(addr uint64, data *[obj.PageSize]byte) {
		restored = append(restored, addr)
		clear(data[:])
	})
	if len(restored) != 1 || restored[0] != low&^(obj.PageSize-1) {
		t.Fatalf("Restore rewrote %#x, want the one stored-to page", restored)
	}
	if got, _ := first.ReadUint64(low); got != 0 {
		t.Errorf("restored page reads %#x through the first view", got)
	}
	if pg, _ := first.Page(low); pg.Dirty() || later.DirtyPages() != 0 {
		t.Error("Restore left a dirty mark")
	}
	checkOwned(t, "lazy stack")
}
