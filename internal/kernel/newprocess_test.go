package kernel_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// TestMain checks, after every test of the package has run — the reset
// equivalence property over two-view processes among them — that nothing
// wrote through the shared zero frame.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && !zeroFrameIntact() {
		fmt.Fprintln(os.Stderr, "kernel: the shared zero frame was written")
		code = 1
	}
	os.Exit(code)
}

// zeroFrameIntact reports whether a freshly mapped page reads all zero:
// a new frame reads through the shared zero frame, so this is the zero
// frame's content.
func zeroFrameIntact() bool {
	mem := emu.NewMemory()
	mem.Map(0, obj.PageSize, obj.PermR)
	var got [obj.PageSize]byte
	return mem.Peek(0, got[:]) && got == [obj.PageSize]byte{}
}

// matmulVariants returns the Fig. 11 matmul task's Chimera process shape:
// the vector build on the extension core class and its CHBP downgrade on
// the base class.
func matmulVariants(t testing.TB) []kernel.Variant {
	t.Helper()
	_, ext, err := workload.MatmulPair(16, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chbp.Rewrite(ext, chbp.Options{TargetISA: riscv.RV64GC})
	if err != nil {
		t.Fatal(err)
	}
	return []kernel.Variant{
		{ISA: riscv.RV64GCV, Image: ext},
		{ISA: riscv.RV64GC, Image: res.Image},
	}
}

// TestNewProcessBytes bounds what building a two-view process allocates:
// frames the guest has not written cost no bytes, the later view maps
// only its private sections, and the stack costs neither page headers nor
// map entries until the guest touches it. The bounds sit about 20% above
// the measured 40464 B and 52 mallocs.
func TestNewProcessBytes(t *testing.T) {
	const maxBytes, maxMallocs = 48 << 10, 64
	variants := matmulVariants(t)
	const n = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := kernel.NewProcess("matmul", variants); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perProc := (after.TotalAlloc - before.TotalAlloc) / n
	mallocs := (after.Mallocs - before.Mallocs) / n
	t.Logf("NewProcess, 2 views: %d B, %d mallocs per process", perProc, mallocs)
	if perProc > maxBytes {
		t.Errorf("NewProcess allocates %d B per process, want at most %d", perProc, maxBytes)
	}
	if mallocs > maxMallocs {
		t.Errorf("NewProcess makes %d mallocs per process, want at most %d", mallocs, maxMallocs)
	}
}

// TestLaterViewMapsOnlyWhatItOwns checks the frame layout of a two-view
// process: the later view maps the first view's stack and shared data
// frames, so a store through either view is read back through the other,
// and keeps its own code frames.
func TestLaterViewMapsOnlyWhatItOwns(t *testing.T) {
	variants := matmulVariants(t)
	p := newProcess(t, variants...)
	var first, later *emu.Memory
	for _, f := range p.Frames() {
		if f.Image == variants[0].Image {
			first = f.Mem
		} else {
			later = f.Mem
		}
	}
	frame := func(m *emu.Memory, addr uint64) *emu.Page {
		pg, ok := m.Page(addr)
		if !ok {
			t.Fatalf("%#x unmapped", addr)
		}
		return pg
	}
	text := variants[1].Image.Text().Addr
	if frame(first, text) == frame(later, text) {
		t.Error("the views share a code frame")
	}
	data := variants[0].Image.Section(obj.SecData).Addr
	for _, a := range []uint64{obj.StackTop - 8, obj.StackTop - obj.StackSize, data} {
		if frame(first, a) != frame(later, a) {
			t.Fatalf("the views map different frames at %#x", a)
		}
		if err := later.WriteUint64(a, 0x5EED0000|a); err != nil {
			t.Fatal(err)
		}
		if got, err := first.ReadUint64(a); err != nil || got != 0x5EED0000|a {
			t.Errorf("store through the later view at %#x: first view reads %#x, %v", a, got, err)
		}
	}
	if !zeroFrameIntact() {
		t.Fatal("a store through a shared frame wrote the zero frame")
	}
}

// BenchmarkNewProcess measures building the Fig. 11 matmul task: the
// vector build alone (1view) and with its CHBP downgrade (2view).
func BenchmarkNewProcess(b *testing.B) {
	variants := matmulVariants(b)
	for _, c := range []struct {
		name     string
		variants []kernel.Variant
	}{{"1view", variants[:1]}, {"2view", variants}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := kernel.NewProcess("matmul", c.variants); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
