// Package emu implements the simulated RISC-V hardware Chimera runs on: a
// paged memory with R/W/X permissions, and RV64IMFDCV cores with per-core
// extension masks, precise deterministic faults and a cycle cost model.
//
// The substrate replaces the paper's SpacemiT K1 / SOPHGO SG2042 boards. It
// is deliberately architectural rather than microarchitectural: what matters
// to Chimera is that jumping into a non-executable data segment raises a
// segmentation fault, that reserved encodings raise illegal-instruction
// faults, and that instruction costs accumulate so rewriting overhead is
// measurable.
package emu

import (
	"encoding/binary"
	"fmt"

	"github.com/eurosys26p57/chimera/internal/obj"
)

// zeroFrame backs every frame Map creates until something writes to it, so
// a mapped page costs its Page header, not 4 KiB, until it is first
// written: the 1 MiB stack of a process whose guest uses a few KiB of it
// costs a few frames. Nothing may write it. Every write path calls
// Page.own first.
var zeroFrame [obj.PageSize]byte

// Page is one 4KiB frame plus its mapping permission. Pages are shared by
// reference between address spaces: Chimera's MMViews map the same data
// frames into every view while giving each view its own code frames (§4.3).
type Page struct {
	// data is the frame's bytes: &zeroFrame until the first write (a
	// guest store, Poke or the loader), its own array after.
	data *[obj.PageSize]byte
	Perm obj.Perm

	// gen counts Pokes into this frame. Because frames are shared by
	// reference, decoded-code caches (icache, blocks, traces) validate
	// against it in addition to the per-address-space generation: a Poke
	// through one Memory invalidates cached translations of every CPU whose
	// address space maps the same frame.
	gen uint64

	// dirty marks a frame a guest store has written since the last
	// Memory.Restore. It lives on the frame, not the address space, so a
	// frame shared by several MMViews is listed (and restored) once. A
	// dirty frame never reads through zeroFrame: markDirty owns it first.
	dirty bool
}

// own gives the frame bytes of its own if it still reads through
// zeroFrame, and returns them for writing. The bytes are already zero, as
// the zero frame's are; and because frames are shared by reference, every
// address space mapping the frame sees the new bytes.
func (p *Page) own() *[obj.PageSize]byte {
	if p.data == &zeroFrame {
		p.data = new([obj.PageSize]byte)
	}
	return p.data
}

// Gen returns the frame's code-patch generation.
func (p *Page) Gen() uint64 { return p.gen }

// Dirty reports whether a guest store has written the frame since the last
// Memory.Restore.
func (p *Page) Dirty() bool { return p.dirty }

// region is a run of pages mapped at once whose Page headers are made on
// first lookup. MapImage maps the stack as one, so a guest that touches a
// few KiB of its 1 MiB stack costs a few headers, not 256. Making a header
// is not a mapping mutation: the page was mapped when the region was.
// Address spaces share a region by reference (ShareFrom), so a page of it
// resolves to the same header in each of them, touched or not.
type region struct {
	base  uint64 // first page number
	perm  obj.Perm
	pages []*Page // nil until first lookup
}

// page returns the header of page pn, making it on first lookup, or false
// when pn lies outside the region.
func (r *region) page(pn uint64) (*Page, bool) {
	i := pn - r.base
	if i >= uint64(len(r.pages)) {
		return nil, false
	}
	p := r.pages[i]
	if p == nil {
		p = &Page{data: &zeroFrame, Perm: r.perm}
		r.pages[i] = p
	}
	return p, true
}

// last returns the region's last page number.
func (r *region) last() uint64 { return r.base + uint64(len(r.pages)) - 1 }

// tlbSize is the number of entries of Memory's page TLB, chosen by
// measurement (DESIGN §10).
const tlbSize = 16

// tlbEntry caches the *Page that page number ^tag resolves to. No page
// number is all ones, so the zero entry is empty and a hit is one compare.
type tlbEntry struct {
	tag  uint64
	page *Page
}

// Memory is a sparse paged address space: a page map plus at most one lazy
// region, which a page map entry shadows. A direct-mapped TLB, shared by
// fetches and data accesses, keeps the hot-loop lookup off both. Only the
// mapping changes (Map, MapPage, mapLazy, ShareFrom) flush it: Poke,
// Page.own and Restore change a frame's bytes, never which *Page a page
// number resolves to.
type Memory struct {
	pages map[uint64]*Page
	lazy  *region
	tlb   [tlbSize]tlbEntry

	// gen counts every mapping/code mutation — the coarse observable
	// exposed by Gen() for tests and diagnostics.
	gen uint64

	// mapGen counts only mapping mutations (Map/MapPage/ShareFrom).
	// Translation caches key on (mapGen, per-frame patch generations): a
	// remap invalidates every cached translation of this address space,
	// while a Poke invalidates only translations spanning the poked frames
	// — in every address space sharing them.
	mapGen uint64

	// dirty lists, in first-store order, the page numbers whose frames a
	// guest store through this address space marked dirty. Only the three
	// guest store paths (storeU64, storeU32, Write) mark; loader writes,
	// Poke and Clone never do. The slice is reused across Restores, so the
	// steady state does not allocate.
	dirty []uint64
}

// Gen returns the mutation generation of the address space.
func (m *Memory) Gen() uint64 { return m.gen }

// MapGen returns the mapping-mutation generation of the address space.
func (m *Memory) MapGen() uint64 { return m.mapGen }

// Poke writes bytes bypassing page permissions — the kernel's code-patching
// primitive (runtime rewriting, §4.3). It bumps the generation so decoded
// instruction and basic-block caches drop stale entries. The whole range is
// validated before any byte is written: a poke that touches an unmapped page
// writes nothing, so a false return never leaves half-patched code behind a
// stale generation.
func (m *Memory) Poke(addr uint64, data []byte) bool {
	if !m.mapped(addr, len(data)) {
		return false
	}
	for len(data) > 0 {
		p, _ := m.page(pageOf(addr))
		off := addr & (obj.PageSize - 1)
		n := copy(p.own()[off:], data)
		p.gen++
		data = data[n:]
		addr += uint64(n)
	}
	m.gen++
	return true
}

// Peek reads bytes bypassing page permissions: Poke's read twin, with
// which the kernel decodes the code it patches. Like Poke it checks the
// whole range first: a false return means a page of it is unmapped, and
// buf is left as it was.
func (m *Memory) Peek(addr uint64, buf []byte) bool {
	if !m.mapped(addr, len(buf)) {
		return false
	}
	for len(buf) > 0 {
		p, _ := m.page(pageOf(addr))
		n := copy(buf, p.data[addr&(obj.PageSize-1):])
		buf = buf[n:]
		addr += uint64(n)
	}
	return true
}

// mapped reports whether every page of [addr, addr+n) is mapped.
func (m *Memory) mapped(addr uint64, n int) bool {
	if n == 0 {
		return true
	}
	for pn := pageOf(addr); pn <= pageOf(addr+uint64(n)-1); pn++ {
		if _, ok := m.page(pn); !ok {
			return false
		}
	}
	return true
}

// markDirty records a guest store into frame p at page pn and gives the
// frame its own bytes, which is how a guest store leaves the zero frame
// untouched. Callers test p.dirty first, so this runs once per frame
// between Restores, and a store into a dirty frame, the hot path, pays
// nothing for demand-zero frames.
func (m *Memory) markDirty(pn uint64, p *Page) {
	p.own()
	p.dirty = true
	m.dirty = append(m.dirty, pn)
}

// DirtyPages returns the number of frames listed dirty in this address
// space since the last Restore.
func (m *Memory) DirtyPages() int { return len(m.dirty) }

// Restore hands every frame a guest store through this address space has
// dirtied since the last Restore to fn, which must rewrite the frame's
// bytes to their load state; then it clears the marks and empties the
// list. It bypasses permissions and moves no generation, so cached code
// translations stay warm: fn must only rewrite data, never code that may
// be executed — that is what Poke is for.
func (m *Memory) Restore(fn func(addr uint64, data *[obj.PageSize]byte)) {
	for _, pn := range m.dirty {
		if p, _ := m.page(pn); p != nil && p.dirty {
			p.dirty = false
			fn(pn<<12, p.data)
		}
	}
	m.dirty = m.dirty[:0]
}

// NewMemory returns an empty address space.
func NewMemory() *Memory { return &Memory{pages: make(map[uint64]*Page)} }

// NewMemoryFor returns an empty address space whose page map is sized for
// MapImage(img), so mapping the image does not grow it. The stack is a
// lazy region and takes no map entries.
func NewMemoryFor(img *obj.Image) *Memory {
	n := 0
	for _, s := range img.Sections {
		if len(s.Data) > 0 {
			n += int(pageOf(s.End()-1) - pageOf(s.Addr) + 1)
		}
	}
	return &Memory{pages: make(map[uint64]*Page, n)}
}

func pageOf(addr uint64) uint64 { return addr >> 12 }

// Page returns the frame mapped at the page containing addr.
func (m *Memory) Page(addr uint64) (*Page, bool) { return m.page(pageOf(addr)) }

// page resolves page number pn through the page map, then the lazy region.
func (m *Memory) page(pn uint64) (*Page, bool) {
	if p, ok := m.pages[pn]; ok {
		return p, true
	}
	if m.lazy != nil {
		return m.lazy.page(pn)
	}
	return nil, false
}

// MapPage installs an existing frame at the page containing addr, enabling
// frame sharing between address spaces.
func (m *Memory) MapPage(addr uint64, p *Page) {
	m.pages[pageOf(addr)] = p
	clear(m.tlb[:])
	m.gen++
	m.mapGen++
}

// lookup resolves page number pn through the TLB. It is small enough to
// inline into the access fast paths; a miss walks the page map in fill.
func (m *Memory) lookup(pn uint64) *Page {
	if e := m.tlb[pn%tlbSize]; e.tag == ^pn {
		return e.page
	}
	return m.fill(pn)
}

// fill resolves pn uncached and, when it is mapped, caches it in the TLB.
func (m *Memory) fill(pn uint64) *Page {
	p, ok := m.page(pn)
	if ok {
		m.tlb[pn%tlbSize] = tlbEntry{tag: ^pn, page: p}
	}
	return p
}

// Map maps zeroed frames covering [addr, addr+size) with the given
// permission. Partial pages are rounded out. A new frame reads through the
// shared zero frame until its first write.
func (m *Memory) Map(addr, size uint64, perm obj.Perm) {
	for pn := pageOf(addr); pn <= pageOf(addr+size-1); pn++ {
		if p, ok := m.page(pn); ok {
			p.Perm |= perm
		} else {
			m.pages[pn] = &Page{data: &zeroFrame, Perm: perm}
		}
	}
	clear(m.tlb[:])
	m.gen++
	m.mapGen++
}

// MapSection maps a section's bytes at its address.
func (m *Memory) MapSection(s *obj.Section) {
	if len(s.Data) == 0 {
		return
	}
	m.Map(s.Addr, uint64(len(s.Data)), s.Perm)
	m.write(s.Addr, s.Data)
}

// MapImage maps every section of an image plus a stack, the stack as the
// address space's lazy region.
func (m *Memory) MapImage(img *obj.Image) {
	for _, s := range img.Sections {
		m.MapSection(s)
	}
	m.mapLazy(obj.StackTop-obj.StackSize, obj.StackSize, obj.PermRW)
}

// mapLazy maps [addr, addr+size) like Map, as a region whose Page headers
// are made on first lookup. An address space holds one region; a second
// is mapped eagerly.
func (m *Memory) mapLazy(addr, size uint64, perm obj.Perm) {
	if m.lazy != nil {
		m.Map(addr, size, perm)
		return
	}
	lo, hi := pageOf(addr), pageOf(addr+size-1)
	m.lazy = &region{base: lo, perm: perm, pages: make([]*Page, hi-lo+1)}
	for pn, p := range m.pages {
		if lo <= pn && pn <= hi {
			p.Perm |= perm
		}
	}
	clear(m.tlb[:])
	m.gen++
	m.mapGen++
}

// write stores bytes without permission checks (loader path).
func (m *Memory) write(addr uint64, data []byte) {
	for len(data) > 0 {
		p, _ := m.page(pageOf(addr))
		off := addr & (obj.PageSize - 1)
		n := copy(p.own()[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

// access performs a checked read or write of n bytes at addr. It returns
// the address that faulted, if any.
func (m *Memory) access(addr uint64, buf []byte, write bool, need obj.Perm) (uint64, bool) {
	a := addr
	for len(buf) > 0 {
		p := m.lookup(pageOf(a))
		if p == nil || p.Perm&need == 0 {
			return a, false
		}
		off := a & (obj.PageSize - 1)
		var n int
		if write {
			if !p.dirty {
				m.markDirty(pageOf(a), p)
			}
			n = copy(p.data[off:], buf)
		} else {
			n = copy(buf, p.data[off:])
		}
		buf = buf[n:]
		a += uint64(n)
	}
	return 0, true
}

// The loadU/storeU/fetchU helpers are the in-page fast paths the block
// engine dispatches through: when an access lies entirely inside one page
// (which every aligned access does), they go straight through the TLB to
// the frame bytes, skipping access()'s multi-page copy loop and the
// intermediate buffer. They return ok=false for any access
// that crosses a page, is unmapped, or lacks permission — callers fall back
// to Read/Write/Fetch, which re-derive the precise faulting address.

func (m *Memory) loadU64(addr uint64) (uint64, bool) {
	off := addr & (obj.PageSize - 1)
	if off > obj.PageSize-8 {
		return 0, false
	}
	p := m.lookup(pageOf(addr))
	if p == nil || p.Perm&obj.PermR == 0 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(p.data[off:]), true
}

func (m *Memory) loadU32(addr uint64) (uint32, bool) {
	off := addr & (obj.PageSize - 1)
	if off > obj.PageSize-4 {
		return 0, false
	}
	p := m.lookup(pageOf(addr))
	if p == nil || p.Perm&obj.PermR == 0 {
		return 0, false
	}
	return binary.LittleEndian.Uint32(p.data[off:]), true
}

func (m *Memory) storeU64(addr uint64, v uint64) bool {
	off := addr & (obj.PageSize - 1)
	if off > obj.PageSize-8 {
		return false
	}
	pn := pageOf(addr)
	p := m.lookup(pn)
	if p == nil || p.Perm&obj.PermW == 0 {
		return false
	}
	if !p.dirty {
		m.markDirty(pn, p)
	}
	binary.LittleEndian.PutUint64(p.data[off:], v)
	return true
}

func (m *Memory) storeU32(addr uint64, v uint32) bool {
	off := addr & (obj.PageSize - 1)
	if off > obj.PageSize-4 {
		return false
	}
	pn := pageOf(addr)
	p := m.lookup(pn)
	if p == nil || p.Perm&obj.PermW == 0 {
		return false
	}
	if !p.dirty {
		m.markDirty(pn, p)
	}
	binary.LittleEndian.PutUint32(p.data[off:], v)
	return true
}

// loadBytes and storeBytes are the same fast path for a vector register's
// bytes: they copy all of buf or, when the span leaves its page, is
// unmapped or lacks permission, nothing.

func (m *Memory) loadBytes(addr uint64, buf []byte) bool {
	off := addr & (obj.PageSize - 1)
	if off+uint64(len(buf)) > obj.PageSize {
		return false
	}
	p := m.lookup(pageOf(addr))
	if p == nil || p.Perm&obj.PermR == 0 {
		return false
	}
	copy(buf, p.data[off:])
	return true
}

func (m *Memory) storeBytes(addr uint64, buf []byte) bool {
	off := addr & (obj.PageSize - 1)
	if off+uint64(len(buf)) > obj.PageSize {
		return false
	}
	pn := pageOf(addr)
	p := m.lookup(pn)
	if p == nil || p.Perm&obj.PermW == 0 {
		return false
	}
	if !p.dirty {
		m.markDirty(pn, p)
	}
	copy(p.data[off:], buf)
	return true
}

func (m *Memory) fetchU16(addr uint64) (uint16, bool) {
	off := addr & (obj.PageSize - 1)
	if off > obj.PageSize-2 {
		return 0, false
	}
	p := m.lookup(pageOf(addr))
	if p == nil || p.Perm&obj.PermX == 0 {
		return 0, false
	}
	return binary.LittleEndian.Uint16(p.data[off:]), true
}

// Read copies n bytes at addr into buf, checking read permission.
func (m *Memory) Read(addr uint64, buf []byte) (uint64, bool) {
	return m.access(addr, buf, false, obj.PermR)
}

// Write copies buf to addr, checking write permission.
func (m *Memory) Write(addr uint64, buf []byte) (uint64, bool) {
	return m.access(addr, buf, true, obj.PermW)
}

// Fetch reads up to 4 instruction bytes at addr, checking execute
// permission. fewer than 4 bytes are returned only at the edge of the
// mapped region.
func (m *Memory) Fetch(addr uint64, buf []byte) (uint64, bool) {
	return m.access(addr, buf, false, obj.PermX)
}

// ReadUint64 loads a little-endian u64.
func (m *Memory) ReadUint64(addr uint64) (uint64, error) {
	var b [8]byte
	if fa, ok := m.Read(addr, b[:]); !ok {
		return 0, fmt.Errorf("emu: read fault at %#x", fa)
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteUint64 stores a little-endian u64.
func (m *Memory) WriteUint64(addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	if fa, ok := m.Write(addr, b[:]); !ok {
		return fmt.Errorf("emu: write fault at %#x", fa)
	}
	return nil
}

// Clone returns a new address space sharing no frames with m (deep copy).
// The copy starts with no dirty marks. Frames still reading through the
// zero frame stay there; only frames with bytes of their own are copied.
func (m *Memory) Clone() *Memory {
	out := NewMemory()
	for pn, p := range m.pages {
		out.pages[pn] = p.clone()
	}
	if r := m.lazy; r != nil {
		out.lazy = &region{base: r.base, perm: r.perm, pages: make([]*Page, len(r.pages))}
		for i, p := range r.pages {
			if p != nil {
				out.lazy.pages[i] = p.clone()
			}
		}
	}
	return out
}

// clone returns a copy of the frame with bytes of its own, unless it still
// reads through the zero frame, and no dirty mark.
func (p *Page) clone() *Page {
	cp := *p
	cp.dirty = false
	if p.data != &zeroFrame {
		data := *p.data
		cp.data = &data
	}
	return &cp
}

// ShareFrom maps every frame of src whose page falls inside [addr,
// addr+size) into m by reference. Used to share data segments and the
// stack between MMViews. A lazy region of src that the range covers is
// shared whole, headers not yet made included, when m has none of its own;
// otherwise the pages of it in range are shared one header at a time.
func (m *Memory) ShareFrom(src *Memory, addr, size uint64) {
	lo, hi := pageOf(addr), pageOf(addr+size-1)
	if r := src.lazy; r != nil && m.lazy == nil && lo <= r.base && r.last() <= hi {
		m.lazy = r
	}
	for pn := lo; pn <= hi; pn++ {
		if p, ok := src.pages[pn]; ok {
			m.pages[pn] = p
		} else if src.lazy != nil && src.lazy != m.lazy {
			if p, ok := src.lazy.page(pn); ok {
				m.pages[pn] = p
			}
		}
	}
	clear(m.tlb[:])
	m.gen++
	m.mapGen++
}
