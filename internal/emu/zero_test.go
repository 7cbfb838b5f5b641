package emu

import (
	"encoding/binary"
	"fmt"
	"os"
	"testing"
	"unsafe"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// TestMain checks, after every test of the package has run — the lockstep
// differential suite, the zero-alloc runs and the write-path tests below
// among them — that nothing wrote through the shared zero frame.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && zeroFrame != [obj.PageSize]byte{} {
		fmt.Fprintln(os.Stderr, "emu: the shared zero frame was written")
		code = 1
	}
	os.Exit(code)
}

// zeroBacked maps n fresh read-write pages at addr and checks that each
// reads through the zero frame.
func zeroBacked(t *testing.T, mem *Memory, addr uint64, n int) []*Page {
	t.Helper()
	mem.Map(addr, uint64(n)*obj.PageSize, obj.PermRW)
	pages := make([]*Page, n)
	for i := range pages {
		p, _ := mem.Page(addr + uint64(i)*obj.PageSize)
		if p.data != &zeroFrame {
			t.Fatalf("fresh page %d has bytes of its own", i)
		}
		pages[i] = p
	}
	return pages
}

// checkOwned checks that every page has bytes of its own and that the zero
// frame is still all zero.
func checkOwned(t *testing.T, path string, pages ...*Page) {
	t.Helper()
	for i, p := range pages {
		if p.data == &zeroFrame {
			t.Errorf("%s: page %d still reads through the zero frame", path, i)
		}
	}
	if zeroFrame != [obj.PageSize]byte{} {
		t.Fatalf("%s wrote through the zero frame", path)
	}
}

// TestZeroFrameWritePaths drives each of the five write paths into a
// zero-backed frame: each must give the frame bytes of its own, read back
// what it wrote, and leave the zero frame all zero.
func TestZeroFrameWritePaths(t *testing.T) {
	const addr = 0x10000 + 0x28
	paths := []struct {
		name  string
		write func(m *Memory) bool
		dirty bool
	}{
		{"storeU64", func(m *Memory) bool { return m.storeU64(addr, 0x1122334455667788) }, true},
		{"storeU32", func(m *Memory) bool { return m.storeU32(addr, 0x55667788) }, true},
		{"Write", func(m *Memory) bool {
			return m.WriteUint64(addr, 0x1122334455667788) == nil
		}, true},
		{"Poke", func(m *Memory) bool {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], 0x1122334455667788)
			return m.Poke(addr, b[:])
		}, false},
		{"loader", func(m *Memory) bool {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], 0x1122334455667788)
			m.write(addr, b[:])
			return true
		}, false},
	}
	for _, path := range paths {
		mem := NewMemory()
		pages := zeroBacked(t, mem, addr&^(obj.PageSize-1), 1)
		if !path.write(mem) {
			t.Fatalf("%s: write failed", path.name)
		}
		checkOwned(t, path.name, pages...)
		if got := pages[0].Dirty(); got != path.dirty {
			t.Errorf("%s: dirty = %v, want %v", path.name, got, path.dirty)
		}
		var b [4]byte
		if !mem.Peek(addr, b[:]) || binary.LittleEndian.Uint32(b[:]) != 0x55667788 {
			t.Errorf("%s: read back %#x", path.name, b)
		}
	}
}

// TestZeroFramePageCrossingStore stores across the boundary of two
// zero-backed frames: the in-page fast path declines, Write carries it,
// and both frames get bytes of their own.
func TestZeroFramePageCrossingStore(t *testing.T) {
	const base = 0x40000
	mem := NewMemory()
	pages := zeroBacked(t, mem, base, 2)
	addr := uint64(base + obj.PageSize - 3)
	if mem.storeU64(addr, 1) {
		t.Fatal("page-crossing storeU64 took the in-page fast path")
	}
	if err := mem.WriteUint64(addr, 0xA1A2A3A4A5A6A7A8); err != nil {
		t.Fatal(err)
	}
	checkOwned(t, "page-crossing Write", pages...)
	if got, _ := mem.ReadUint64(addr); got != 0xA1A2A3A4A5A6A7A8 {
		t.Errorf("read back %#x", got)
	}
	if mem.DirtyPages() != 2 {
		t.Errorf("%d dirty pages, want 2", mem.DirtyPages())
	}
}

// TestZeroFrameSharedStore shares a zero-backed stack page between two
// address spaces, as MMViews share the stack: a store through view B gives
// the one frame its bytes, and view A reads them back.
func TestZeroFrameSharedStore(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	base := obj.StackTop - obj.StackSize
	a.Map(base, obj.StackSize, obj.PermRW)
	b.ShareFrom(a, base, obj.StackSize)
	addr := obj.StackTop - 16
	pa, _ := a.Page(addr)
	if pa.data != &zeroFrame {
		t.Fatal("fresh stack page has bytes of its own")
	}
	if !b.storeU64(addr, 0xFEEDFACE) {
		t.Fatal("store through view B failed")
	}
	checkOwned(t, "shared store", pa)
	if got, ok := a.loadU64(addr); !ok || got != 0xFEEDFACE {
		t.Errorf("view A reads %#x, want %#x", got, 0xFEEDFACE)
	}
	if a.DirtyPages() != 0 || b.DirtyPages() != 1 {
		t.Errorf("dirty lists: A %d, B %d; want 0, 1", a.DirtyPages(), b.DirtyPages())
	}
}

// TestZeroFrameClone checks that a clone of a zero-backed frame stays
// independent of the original in both directions.
func TestZeroFrameClone(t *testing.T) {
	const addr = 0x50000
	orig := NewMemory()
	zeroBacked(t, orig, addr, 1)
	c := orig.Clone()
	if p, _ := c.Page(addr); p.data != &zeroFrame {
		t.Error("clone copied a zero-backed frame")
	}
	if err := c.WriteUint64(addr, 7); err != nil {
		t.Fatal(err)
	}
	if got, _ := orig.ReadUint64(addr); got != 0 {
		t.Errorf("store into the clone shows in the original: %#x", got)
	}
	if err := orig.WriteUint64(addr+8, 9); err != nil {
		t.Fatal(err)
	}
	d := orig.Clone()
	if err := orig.WriteUint64(addr+8, 10); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.ReadUint64(addr + 8); got != 0 {
		t.Errorf("store into the original shows in the first clone: %#x", got)
	}
	if got, _ := d.ReadUint64(addr + 8); got != 9 {
		t.Errorf("second clone reads %#x, want its snapshot 9", got)
	}
	checkOwned(t, "clone")
}

// TestICacheAllocatedOnFirstStep pins the lazy decode cache: a new hart
// carries no icache, and the first Step allocates it.
func TestICacheAllocatedOnFirstStep(t *testing.T) {
	cpu := codeCPU(t, enc(t, riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1}))
	if cpu.icache != nil {
		t.Fatal("NewCPU allocated the icache")
	}
	if size := unsafe.Sizeof(*cpu); size > 32<<10 {
		t.Errorf("CPU is %d bytes; the icache should not be inline", size)
	}
	if stop, halted := cpu.Step(); halted {
		t.Fatalf("step: %+v", stop)
	}
	if cpu.icache == nil || cpu.X[riscv.A0] != 1 {
		t.Errorf("after Step: icache %v, a0 %d", cpu.icache != nil, cpu.X[riscv.A0])
	}
}

// TestFallbackStepUncached: where no block can start, the block engine
// steps without the icache, and raises the interpreter's precise fault.
func TestFallbackStepUncached(t *testing.T) {
	text := append(enc(t, riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1}), 0, 0, 0, 0)
	blocks, interp := codeCPU(t, text), codeCPU(t, text)
	interp.Interp = true
	got, want := blocks.Run(10), interp.Run(10)
	if got.Kind != StopFault || got.Fault.Kind != want.Fault.Kind || got.Fault.PC != want.Fault.PC {
		t.Fatalf("block engine stop %+v, interpreter %+v", got, want)
	}
	if blocks.icache != nil {
		t.Error("the block engine's fallback step allocated the icache")
	}
	if interp.icache == nil {
		t.Error("the interpreter ran without its icache")
	}
}

// TestLoaderSkipsZeroChunks: the loader leaves a section's all-zero pages
// on the zero frame and gives the others bytes of their own; a zero chunk
// over bytes a frame already owns is still written, and a later store owns
// a skipped page.
func TestLoaderSkipsZeroChunks(t *testing.T) {
	const base = 0x30000
	data := make([]byte, 3*obj.PageSize-8)
	data[obj.PageSize+5] = 1
	mem := NewMemory()
	mem.MapSection(&obj.Section{Name: obj.SecData, Addr: base, Data: data, Perm: obj.PermRW})
	pages := make([]*Page, 3)
	for i := range pages {
		pages[i], _ = mem.Page(base + uint64(i)*obj.PageSize)
	}
	if pages[0].data != &zeroFrame || pages[2].data != &zeroFrame {
		t.Error("an all-zero page of the section got bytes of its own")
	}
	checkOwned(t, "nonzero chunk", pages[1])
	mem.write(base+obj.PageSize, make([]byte, 8))
	if got, _ := mem.ReadUint64(base + obj.PageSize); got != 0 {
		t.Errorf("zero chunk over owned bytes: read back %#x", got)
	}
	if err := mem.WriteUint64(base+8, 0xC0FFEE); err != nil {
		t.Fatal(err)
	}
	checkOwned(t, "store into a skipped page", pages[0])
	if got, _ := mem.ReadUint64(base + 8); got != 0xC0FFEE {
		t.Errorf("store into a skipped page: read back %#x", got)
	}
}
