package kernel_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/fuzz"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

func exit(b *asm.Builder) {
	b.Li(riscv.A7, kernel.SysExit)
	b.Ecall()
}

func build(t testing.TB, b *asm.Builder, name string) *obj.Image {
	t.Helper()
	img, err := b.Build(name, "main")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func newProcess(t testing.TB, variants ...kernel.Variant) *kernel.Process {
	t.Helper()
	p, err := kernel.NewProcess("reset", variants)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runToExit runs the process until its guest exits.
func runToExit(t testing.TB, p *kernel.Process, budget uint64) uint64 {
	t.Helper()
	for i := 0; i < 1000 && !p.Exited; i++ {
		_, st, err := p.Run(budget)
		if err != nil {
			t.Fatal(err)
		}
		if st == kernel.StatusNeedMigration {
			t.Fatalf("unexpected migration request at %#x", p.CPU.PC)
		}
	}
	if !p.Exited {
		t.Fatal("guest did not exit")
	}
	return p.ExitCode
}

// TestResetClearsPageTailStores is the page-tail regression: .data holds
// one 8-byte word at x, and the guest exits with the word at x+64 — same
// page, outside every section — before storing 7 there. Reset must rewind
// that byte to its load state (zero) like every other, or each run would
// observe the previous one.
func TestResetClearsPageTailStores(t *testing.T) {
	b := asm.NewBuilder(riscv.RV64GC)
	b.DataI64("x", []int64{0})
	b.Func("main")
	b.La(riscv.S2, "x")
	b.Load(riscv.LD, riscv.A0, riscv.S2, 64)
	b.Li(riscv.T0, 7)
	b.Store(riscv.SD, riscv.T0, riscv.S2, 64)
	exit(b)
	img := build(t, b, "pagetail")
	x, ok := img.Lookup("x")
	if !ok {
		t.Fatal("no symbol x")
	}
	if s := img.SectionAt(x.Addr + 64); s != nil {
		t.Fatalf("x+64 = %#x lies in %s; the guest must store past every section", x.Addr+64, s.Name)
	}
	if x.Addr/obj.PageSize != (x.Addr+64)/obj.PageSize {
		t.Fatalf("x+64 = %#x is not on x's page", x.Addr+64)
	}
	p := newProcess(t, kernel.Variant{ISA: riscv.RV64GC, Image: img})
	for run := 0; run < 3; run++ {
		if code := runToExit(t, p, 1_000); code != 0 {
			t.Fatalf("run %d read %d at x+64, want 0: a previous run's store survived Reset", run, code)
		}
		p.Reset()
	}
}

// fewPagesGuest stores into three stack pages and both pages of a
// two-page .data array, then exits 0.
func fewPagesGuest(t testing.TB) (img *obj.Image, dirty []uint64) {
	b := asm.NewBuilder(riscv.RV64GC)
	b.DataI64("arr", make([]int64, obj.PageSize/8*2))
	b.Func("main")
	b.Li(riscv.T0, 0x5A)
	for _, page := range []uint64{1, 2, 4} {
		addr := obj.StackTop - page*obj.PageSize + 16
		b.Li(riscv.T1, int64(addr))
		b.Store(riscv.SD, riscv.T0, riscv.T1, 0)
		dirty = append(dirty, addr&^(obj.PageSize-1))
	}
	b.La(riscv.S2, "arr")
	b.Store(riscv.SD, riscv.T0, riscv.S2, 8)
	b.Li(riscv.T1, obj.PageSize-8)
	b.Op(riscv.ADD, riscv.T1, riscv.S2, riscv.T1)
	b.Store(riscv.SB, riscv.T0, riscv.T1, 0)
	b.Store(riscv.SW, riscv.T0, riscv.T1, 16)
	b.Li(riscv.A0, 0)
	exit(b)
	img = build(t, b, "fewpages")
	arr, _ := img.Lookup("arr")
	return img, append(dirty, arr.Addr, arr.Addr+obj.PageSize)
}

// TestResetRestoresOnlyDirtyPages pins the restore scope: after a run the
// dirty marks sit on exactly the frames the guest stored to, and Reset
// rewrites exactly those — a byte Poked (which never marks) into a clean
// stack page survives it, so restore cost cannot silently fall back to
// scaling with the 1 MiB stack.
func TestResetRestoresOnlyDirtyPages(t *testing.T) {
	img, want := fewPagesGuest(t)
	slices.Sort(want)
	p := newProcess(t, kernel.Variant{ISA: riscv.RV64GC, Image: img})
	mem := p.Frames()[0].Mem
	clean := obj.StackTop - obj.StackSize
	for run := 0; run < 3; run++ {
		if code := runToExit(t, p, 1_000); code != 0 {
			t.Fatalf("run %d exited %d", run, code)
		}
		if n := mem.DirtyPages(); n != len(want) {
			t.Errorf("run %d: %d dirty pages listed, want %d", run, n, len(want))
		}
		var got []uint64
		for _, a := range p.Frames()[0].Pages {
			if pg, ok := mem.Page(a); ok && pg.Dirty() {
				got = append(got, a)
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("run %d: dirty frames %#x, want %#x", run, got, want)
		}
		if !mem.Poke(clean, []byte{0xEE}) {
			t.Fatal("poke of the lowest stack page failed")
		}
		p.Reset()
		if n := mem.DirtyPages(); n != 0 {
			t.Errorf("run %d: %d dirty pages listed after Reset", run, n)
		}
		for _, a := range want {
			pg, _ := mem.Page(a)
			var data [obj.PageSize]byte
			mem.Peek(a, data[:])
			if pg.Dirty() || data != [obj.PageSize]byte{} {
				t.Errorf("run %d: page %#x not restored (dirty %v)", run, a, pg.Dirty())
			}
		}
		var b [1]byte
		if mem.Peek(clean, b[:]); b[0] != 0xEE {
			t.Errorf("run %d: Reset rewrote the clean page %#x", run, clean)
		}
	}
}

// BenchmarkProcessReset measures the fuzzing loop's per-exec rewind on a
// warm process whose guest dirties three stack pages and two data pages:
// Reset plus the short guest run that dirties them again. It must not
// allocate.
func BenchmarkProcessReset(b *testing.B) {
	img, _ := fewPagesGuest(b)
	p := newProcess(b, kernel.Variant{ISA: riscv.RV64GC, Image: img})
	for i := 0; i < 10; i++ {
		runToExit(b, p, 1_000)
		p.Reset()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runToExit(b, p, 1_000)
		p.Reset()
	}
}

// stackDataGuest derives a store-heavy guest from seed: loads and stores
// of every width at random offsets into a .data array of random length
// (page tails past the array included) and into the top 256 KiB of the
// stack, with some stores straddling a page boundary. Every load folds into
// the exit code, so a byte one run leaves behind changes the next run's.
func stackDataGuest(t testing.TB, seed int64) *obj.Image {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(1100)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63()
	}
	b := asm.NewBuilder(riscv.RV64GC)
	b.DataI64("arr", vals)
	b.Func("main")
	b.La(riscv.S2, "arr")
	b.Li(riscv.S3, 0)
	tail := int(obj.AlignUp(uint64(8*n), obj.PageSize))
	widths := []struct {
		size       int
		load, stor riscv.Op
	}{{1, riscv.LBU, riscv.SB}, {2, riscv.LHU, riscv.SH}, {4, riscv.LWU, riscv.SW}, {8, riscv.LD, riscv.SD}}
	for k := 8 + rng.Intn(24); k > 0; k-- {
		w := widths[rng.Intn(len(widths))]
		if rng.Intn(2) == 0 {
			off := rng.Intn(tail-w.size+1) &^ (w.size - 1)
			b.Li(riscv.T0, int64(off))
			b.Op(riscv.ADD, riscv.T1, riscv.S2, riscv.T0)
		} else {
			off := 8 + rng.Intn(256<<10)&^(w.size-1)
			if rng.Intn(8) == 0 {
				off = int(obj.PageSize)*(1+rng.Intn(63)) + 4 // an 8-byte access straddles the page
				w = widths[3]
			}
			b.Li(riscv.T1, int64(obj.StackTop)-int64(off))
		}
		b.Load(w.load, riscv.T2, riscv.T1, 0)
		b.Op(riscv.ADD, riscv.S3, riscv.S3, riscv.T2)
		b.Li(riscv.T2, rng.Int63())
		b.Store(w.stor, riscv.T2, riscv.T1, 0)
	}
	b.Imm(riscv.ANDI, riscv.A0, riscv.S3, 127)
	exit(b)
	return build(t, b, fmt.Sprintf("stackdata-%d", seed))
}

// referenceRestore is the full restore Process.Reset performed before it
// tracked dirty pages — every writable section copied back from the image,
// the whole stack zeroed — with the page-tail fix applied: the bytes of a
// writable section's pages that lie in no section are zeroed too.
func referenceRestore(mem *emu.Memory, img *obj.Image) {
	var page, zero [obj.PageSize]byte
	for _, s := range img.Sections {
		if s.Perm&obj.PermW == 0 || len(s.Data) == 0 {
			continue
		}
		for a := s.Addr &^ (obj.PageSize - 1); a < s.End(); a += obj.PageSize {
			mem.Peek(a, page[:])
			for i := range page {
				if img.SectionAt(a+uint64(i)) == nil {
					page[i] = 0
				}
			}
			mem.Poke(a, page[:])
		}
	}
	for _, s := range img.Sections {
		if s.Perm&obj.PermW != 0 {
			mem.Poke(s.Addr, s.Data)
		}
	}
	for a := obj.StackTop - obj.StackSize; a < obj.StackTop; a += obj.PageSize {
		if mem.Peek(a, page[:]); page != zero {
			mem.Poke(a, zero[:])
		}
	}
}

// checkResets runs the process to exit and resets it, twice, comparing
// every mapped frame of every view after each Reset with referenceRestore
// applied to a Clone taken before it. It returns the dirty pages the runs
// listed.
func checkResets(t *testing.T, name string, p *kernel.Process, run func() uint64) int {
	t.Helper()
	var code0 uint64
	dirty := 0
	for round := 0; round < 2; round++ {
		if code := run(); round == 0 {
			code0 = code
		} else if code != code0 {
			t.Errorf("%s: run after Reset exited %d, first run %d", name, code, code0)
		}
		frames := p.Frames()
		want := make([]*emu.Memory, len(frames))
		for i, f := range frames {
			dirty += f.Mem.DirtyPages()
			c := f.Mem.Clone()
			if c.DirtyPages() != 0 {
				t.Fatalf("%s: Clone listed %d dirty pages", name, c.DirtyPages())
			}
			for _, a := range f.Pages {
				if pg, ok := c.Page(a); ok && pg.Dirty() {
					t.Fatalf("%s: Clone carried the dirty mark of %#x", name, a)
				}
			}
			referenceRestore(c, f.Image)
			want[i] = c
		}
		p.Reset()
		for i, f := range frames {
			if n := f.Mem.DirtyPages(); n != 0 {
				t.Errorf("%s: view %d lists %d dirty pages after Reset", name, i, n)
			}
			for _, a := range f.Pages {
				got, ok := f.Mem.Page(a)
				if !ok {
					continue
				}
				if got.Dirty() {
					t.Errorf("%s: view %d page %#x still dirty after Reset", name, i, a)
				}
				var gotData, expData [obj.PageSize]byte
				f.Mem.Peek(a, gotData[:])
				want[i].Peek(a, expData[:])
				if gotData != expData {
					for j := range gotData {
						if gotData[j] != expData[j] {
							t.Fatalf("%s round %d: view %d byte %#x = %#x after Reset, full restore gives %#x",
								name, round, i, a+uint64(j), gotData[j], expData[j])
						}
					}
				}
			}
		}
	}
	return dirty
}

// TestResetMatchesFullRestore is the reset-equivalence property: over 200
// seeds of generated fuzz programs and store-heavy stack/data guests, on
// one view and on two-view CHBP processes whose views share data and stack
// frames (and migrate mid-run, so stores arrive through both address
// spaces), the dirty-page Reset leaves every mapped frame exactly as the
// full restore does.
func TestResetMatchesFullRestore(t *testing.T) {
	dirty := 0
	for seed := int64(0); seed < 200; seed++ {
		spec := fuzz.Generate(seed, fuzz.DefaultConfig())
		specImg, budget, err := spec.Assemble()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		guests := []struct {
			img    *obj.Image
			budget uint64
		}{{specImg, budget}, {stackDataGuest(t, seed), 10_000}}
		for _, g := range guests {
			name := g.img.Name
			p := newProcess(t, kernel.Variant{ISA: g.img.ISA, Image: g.img})
			dirty += checkResets(t, name, p, func() uint64 { return runToExit(t, p, g.budget) })

			res, err := chbp.Rewrite(g.img, chbp.Options{TargetISA: riscv.RV64GC})
			if err != nil {
				t.Fatalf("%s: chbp: %v", name, err)
			}
			p = newProcess(t,
				kernel.Variant{ISA: riscv.RV64GCV, Image: g.img},
				kernel.Variant{ISA: riscv.RV64GC, Image: res.Image})
			slice := uint64(1 + seed%64)
			dirty += checkResets(t, name+"/chbp", p, func() uint64 {
				if _, _, err := p.Run(slice); err != nil {
					t.Fatal(err)
				}
				if !p.Exited {
					if err := p.MigrateTo(riscv.RV64GC); err != nil {
						t.Fatal(err)
					}
				}
				return runToExit(t, p, g.budget)
			})
		}
	}
	if dirty == 0 {
		t.Fatal("no guest dirtied a page")
	}
}
