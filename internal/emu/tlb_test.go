package emu

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/eurosys26p57/chimera/internal/obj"
)

// walk resolves pn uncached: what every TLB hit must agree with.
func walk(m *Memory, pn uint64) *Page {
	p, _ := m.page(pn)
	return p
}

// checkTLB fails unless every filled entry of m's TLB sits in its page's
// slot and caches the *Page an uncached walk resolves.
func checkTLB(t *testing.T, step string, m *Memory) {
	t.Helper()
	for i, e := range m.tlb {
		if e.tag == 0 {
			continue
		}
		pn := ^e.tag
		if pn%tlbSize != uint64(i) {
			t.Fatalf("%s: page %#x cached in slot %d", step, pn, i)
		}
		if want := walk(m, pn); e.page != want {
			t.Fatalf("%s: TLB resolves page %#x to %p, the page map to %p", step, pn, e.page, want)
		}
	}
}

// checkAccesses runs each fast path at a page-interior address of pn and
// checks its result against the frame an uncached walk resolves.
func checkAccesses(t *testing.T, step string, m *Memory, pn uint64, off uint64, v uint64) {
	t.Helper()
	addr := pn<<12 | off
	p := walk(m, pn)
	can := func(perm obj.Perm) bool { return p != nil && p.Perm&perm != 0 }
	if got, ok := m.loadU64(addr); ok != can(obj.PermR) || ok && got != binary.LittleEndian.Uint64(p.data[off:]) {
		t.Fatalf("%s: loadU64(%#x) = %#x, %v against the walked frame", step, addr, got, ok)
	}
	if ok := m.storeU64(addr, v); ok != can(obj.PermW) || ok && binary.LittleEndian.Uint64(p.data[off:]) != v {
		t.Fatalf("%s: storeU64(%#x) = %v, or missed the walked frame", step, addr, ok)
	}
	var buf [16]byte
	if ok := m.loadBytes(addr&^15, buf[:]); ok != can(obj.PermR) || ok && string(buf[:]) != string(p.data[off&^15:][:16]) {
		t.Fatalf("%s: loadBytes(%#x) = %v against the walked frame", step, addr&^15, ok)
	}
	if got, ok := m.fetchU16(addr); ok != can(obj.PermX) || ok && got != binary.LittleEndian.Uint16(p.data[off:]) {
		t.Fatalf("%s: fetchU16(%#x) = %#x, %v against the walked frame", step, addr, got, ok)
	}
}

// tlbPool returns page numbers that collide in the TLB: 0 and 1 share
// slots with tlbSize, tlbSize+1, 2*tlbSize and the lazy region's pages.
func tlbPool() []uint64 {
	pool := []uint64{0, 1, tlbSize - 1, tlbSize, tlbSize + 1, 2 * tlbSize, 5*tlbSize + 1}
	for i := uint64(0); i < tlbLazyPages; i++ {
		pool = append(pool, tlbLazyBase+i)
	}
	return pool
}

const (
	tlbLazyBase  = 3 * tlbSize // first page of the test's lazy region
	tlbLazyPages = 4
)

// TestTLBMatchesPageWalk interleaves every mapping mutation, Poke,
// Restore, Clone, lazy first touches and the four fast paths on address
// spaces that share frames and a lazy region, and checks after each step
// that every TLB entry and every access agrees with an uncached walk.
func TestTLBMatchesPageWalk(t *testing.T) {
	perms := []obj.Perm{obj.PermR, obj.PermRW, obj.PermRX, obj.PermRW | obj.PermX}
	pool := tlbPool()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := NewMemory(), NewMemory()
		a.mapLazy(tlbLazyBase<<12, tlbLazyPages*obj.PageSize, obj.PermRW)
		b.ShareFrom(a, tlbLazyBase<<12, tlbLazyPages*obj.PageSize)
		views := []*Memory{a, b}
		pick := func() uint64 { return pool[rng.Intn(len(pool))] }
		for i := 0; i < 400; i++ {
			m := views[rng.Intn(len(views))]
			other := views[rng.Intn(len(views))]
			pn := pick()
			var step string
			switch op := rng.Intn(10); op {
			case 0:
				step = "Map"
				m.Map(pn<<12, uint64(1+rng.Intn(2))*obj.PageSize, perms[rng.Intn(len(perms))])
			case 1:
				step = "MapPage"
				p := walk(other, pick())
				if p == nil || rng.Intn(3) == 0 {
					p = &Page{data: &zeroFrame, Perm: perms[rng.Intn(len(perms))]}
				}
				m.MapPage(pn<<12, p)
			case 2:
				step = "ShareFrom"
				if m != other {
					m.ShareFrom(other, pn<<12, uint64(1+rng.Intn(3))*obj.PageSize)
				}
			case 3:
				step = "Poke"
				m.Poke(pn<<12|uint64(rng.Intn(obj.PageSize-8)), []byte{1, 2, 3, 4, 5, 6, 7, 8})
			case 4:
				step = "Restore"
				m.Restore(func(_ uint64, data *[obj.PageSize]byte) { clear(data[:]) })
			case 5:
				step = "Clone"
				if len(views) < 4 {
					views = append(views, m.Clone())
				} else {
					views[2+rng.Intn(2)] = m.Clone()
				}
			default:
				step = "access"
				checkAccesses(t, step, m, pn, uint64(rng.Intn(obj.PageSize/8))*8, rng.Uint64())
			}
			for j, v := range views {
				checkTLB(t, step, v)
				for _, q := range pool {
					if got, want := v.lookup(q), walk(v, q); got != want {
						t.Fatalf("seed %d step %d (%s): view %d resolves page %#x to %p, the page map to %p",
							seed, i, step, j, q, got, want)
					}
				}
			}
		}
	}
}

// TestTLBCongruentPages reads two pages that share a TLB slot alternately:
// each read must see its own page's bytes.
func TestTLBCongruentPages(t *testing.T) {
	m := NewMemory()
	lo, hi := uint64(2), uint64(2+tlbSize)
	m.Map(lo<<12, obj.PageSize, obj.PermRW)
	m.Map(hi<<12, obj.PageSize, obj.PermRW)
	if !m.storeU64(lo<<12|8, 111) || !m.storeU64(hi<<12|8, 222) {
		t.Fatal("store to a mapped page failed")
	}
	for i := 0; i < 6; i++ {
		pn, want := lo, uint64(111)
		if i%2 == 1 {
			pn, want = hi, 222
		}
		if got, ok := m.loadU64(pn<<12 | 8); !ok || got != want {
			t.Fatalf("read %d of page %#x = %d, %v; want %d", i, pn, got, ok, want)
		}
		checkTLB(t, "alternating read", m)
	}
}

// TestTLBPageZero maps page number 0, whose number an empty entry must
// not be mistaken for, in a fresh address space and in a clone.
func TestTLBPageZero(t *testing.T) {
	m := NewMemory()
	if _, ok := m.loadU64(8); ok {
		t.Fatal("unmapped page 0 loads")
	}
	m.Map(0, obj.PageSize, obj.PermRW|obj.PermX)
	if !m.storeU64(8, 0x1234) {
		t.Fatal("store to mapped page 0 failed")
	}
	for name, v := range map[string]*Memory{"original": m, "clone": m.Clone()} {
		if got, ok := v.loadU64(8); !ok || got != 0x1234 {
			t.Fatalf("%s: page 0 reads %#x, %v", name, got, ok)
		}
		if got, ok := v.fetchU16(8); !ok || got != 0x1234 {
			t.Fatalf("%s: page 0 fetches %#x, %v", name, got, ok)
		}
		checkTLB(t, name, v)
	}
}

// TestTLBMapPageOtherView replaces a shared frame in one view: the other
// view, its TLB warm, must still resolve the frame they shared.
func TestTLBMapPageOtherView(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	a.Map(7<<12, obj.PageSize, obj.PermRW)
	b.ShareFrom(a, 7<<12, obj.PageSize)
	shared := walk(a, 7)
	if !a.storeU64(7<<12, 1) {
		t.Fatal("store to the shared frame failed")
	}
	if got, ok := b.loadU64(7 << 12); !ok || got != 1 {
		t.Fatalf("the other view reads %d, %v through the shared frame", got, ok)
	}
	a.MapPage(7<<12, &Page{data: &zeroFrame, Perm: obj.PermRW})
	if got, ok := a.loadU64(7 << 12); !ok || got != 0 {
		t.Fatalf("the remapped view reads %d, %v; want its new zero frame", got, ok)
	}
	if b.lookup(7) != shared {
		t.Fatal("a MapPage on one view changed what the other resolves")
	}
	if got, ok := b.loadU64(7 << 12); !ok || got != 1 {
		t.Fatalf("the other view reads %d, %v after the remap; want 1", got, ok)
	}
	checkTLB(t, "a", a)
	checkTLB(t, "b", b)
}
