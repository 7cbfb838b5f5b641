// Package dis recursively disassembles executable images. It plays the role
// of IDA Pro in the paper's pipeline (§4.1): recursion from the entry point
// and function symbols guarantees every *recognized* instruction is real,
// but completeness is explicitly not guaranteed — code reachable only
// through indirect jumps may stay unrecognized, and Chimera's runtime
// rewrites such instructions when they fault at run time (§4.3).
//
// A Result is dense: the recognized instructions live in one address-sorted
// slice, and consumers read them by index. The traversal marks visited
// instruction starts in a bitmap per executable region, so the sorted order
// falls out of a linear scan of the bitmaps and lookups are a rank query.
package dis

import (
	"cmp"
	"errors"
	"math/bits"
	"slices"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// Result is the disassembly of an image.
type Result struct {
	// Order lists the recognized instruction addresses, ascending.
	Order []uint64
	// Insts holds the decoded instructions parallel to Order: Insts[i] is
	// the instruction at Order[i].
	Insts []riscv.Inst
	// IndirectJumps lists, ascending, the addresses of register-indirect
	// jumps (jalr) whose targets cannot be resolved statically.
	IndirectJumps []uint64
	// Calls lists, ascending, the addresses of direct calls (jal/jalr with
	// rd=ra).
	Calls []uint64
	// Undecodable lists, ascending, the addresses where decoding failed on
	// a recursive path (reserved encodings; truncation is not recorded).
	Undecodable []BadDecode
	// Roots are the sorted, deduplicated recursion roots: the entry point,
	// every function symbol and every accepted extra root. CFG recovery
	// treats them as block leaders.
	Roots []uint64

	img  *obj.Image
	regs []region
	// exact is set when no two sections of the image overlap, so a
	// region's single section is the one obj.Image.SectionAt would return.
	exact bool
	// decoded counts the instructions decoded by the traversals that built
	// r, Extend's included: each recognized instruction is decoded once.
	decoded int
}

// BadDecode is an address where decoding failed and the decoder's error.
type BadDecode struct {
	Addr uint64
	Err  error
}

// region is one maximal address range covered by executable sections. Its
// bitmaps hold one bit per byte: insn marks recognized instruction starts,
// bad marks undecodable ones. rank[w] counts the recognized instructions
// before word w of insn across all regions, so the index of a recognized
// address is a rank query.
type region struct {
	base, end uint64
	sec       *obj.Section // the only section covering the region, when exact
	insn, bad []uint64
	rank      []int32
}

// visit is one instruction decoded by a traversal, before layout.
type visit struct {
	pc   uint64
	inst riscv.Inst
}

// At returns the instruction at addr.
func (r *Result) At(addr uint64) (riscv.Inst, bool) {
	i, ok := r.Index(addr)
	if !ok {
		return riscv.Inst{}, false
	}
	return r.Insts[i], true
}

// Index returns the position of the recognized instruction at addr in
// Order and Insts.
func (r *Result) Index(addr uint64) (int, bool) {
	g := r.regionOf(addr)
	if g == nil {
		return 0, false
	}
	off := addr - g.base
	w, bit := off>>6, uint64(1)<<(off&63)
	if g.insn[w]&bit == 0 {
		return 0, false
	}
	return int(g.rank[w]) + bits.OnesCount64(g.insn[w]&(bit-1)), true
}

// Fallthrough returns the index of the recognized instruction that starts
// where the one at index i ends.
func (r *Result) Fallthrough(i int) (int, bool) {
	next := r.Order[i] + uint64(r.Insts[i].Len)
	if j := i + 1; j < len(r.Order) && r.Order[j] == next {
		return j, true
	}
	return r.Index(next)
}

// regionOf returns the executable region holding addr, or nil.
func (r *Result) regionOf(addr uint64) *region {
	lo, hi := 0, len(r.regs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.regs[m].end <= addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(r.regs) && r.regs[lo].base <= addr {
		return &r.regs[lo]
	}
	return nil
}

// Disassemble recursively disassembles the image starting from the entry
// point and every function symbol.
func Disassemble(img *obj.Image) *Result {
	return DisassembleWithRoots(img, nil)
}

// DisassembleWithRoots disassembles like Disassemble but seeds the
// recursion with extra roots on top of the entry point and function
// symbols. The resolver (internal/resolve) feeds statically recovered
// High-confidence indirect targets back through Extend so code reachable
// only through jump tables is still recognized. Extra roots outside
// executable sections are ignored; duplicates are deduplicated.
func DisassembleWithRoots(img *obj.Image, extra []uint64) *Result {
	r := &Result{img: img}
	r.regs, r.exact = regions(img)
	roots := []uint64{img.Entry}
	for _, sym := range img.FuncSymbols() {
		roots = append(roots, sym.Addr)
	}
	roots = append(roots, r.executable(extra)...)
	slices.Sort(roots)
	r.Roots = slices.Compact(roots)
	visits := r.walk(slices.Clone(r.Roots))
	r.decoded = len(visits)
	r.layout(nil, nil, visits)
	return r
}

// Extend returns the disassembly seeded with r's roots plus extra: the
// same Result DisassembleWithRoots would build from the union, since
// recursive reachability does not depend on visit order. Only code newly
// reachable from extra is decoded; r itself is left unchanged.
func (r *Result) Extend(extra []uint64) *Result {
	var fresh []uint64
	for _, a := range r.executable(extra) {
		if _, dup := slices.BinarySearch(r.Roots, a); !dup {
			fresh = append(fresh, a)
		}
	}
	if len(fresh) == 0 {
		return r
	}
	n := &Result{img: r.img, exact: r.exact, regs: make([]region, len(r.regs))}
	for i, g := range r.regs {
		g.insn, g.bad = slices.Clone(g.insn), slices.Clone(g.bad)
		g.rank = make([]int32, len(g.rank))
		n.regs[i] = g
	}
	roots := append(slices.Clone(r.Roots), fresh...)
	slices.Sort(roots)
	n.Roots = slices.Compact(roots)
	visits := n.walk(fresh)
	n.decoded = r.decoded + len(visits)
	n.layout(r.Order, r.Insts, visits)
	return n
}

// executable keeps the addresses that lie in executable sections.
func (r *Result) executable(addrs []uint64) []uint64 {
	var out []uint64
	for _, a := range addrs {
		if sec := r.img.SectionAt(a); sec != nil && sec.Perm&obj.PermX != 0 {
			out = append(out, a)
		}
	}
	return out
}

// regions returns the image's executable address ranges, ascending, with
// overlapping executable sections merged, and whether no two sections of
// the image overlap at all.
func regions(img *obj.Image) ([]region, bool) {
	secs := slices.Clone(img.Sections)
	slices.SortFunc(secs, func(a, b *obj.Section) int { return cmp.Compare(a.Addr, b.Addr) })
	exact, end := true, uint64(0)
	for i, s := range secs {
		if i > 0 && s.Addr < end {
			exact = false
		}
		end = max(end, s.End())
	}
	var regs []region
	for _, s := range secs {
		if s.Perm&obj.PermX == 0 || s.End() <= s.Addr {
			continue // not code, empty, or wrapping: SectionAt never returns it
		}
		if n := len(regs); n > 0 && s.Addr < regs[n-1].end {
			regs[n-1].end = max(regs[n-1].end, s.End())
			regs[n-1].sec = nil
			continue
		}
		regs = append(regs, region{base: s.Addr, end: s.End(), sec: s})
	}
	for i := range regs {
		g := &regs[i]
		words := (g.end - g.base + 63) / 64
		g.insn = make([]uint64, words)
		g.bad = make([]uint64, words)
		g.rank = make([]int32, words)
	}
	return regs, exact
}

// walk follows every path from the work list, marking each decoded
// instruction start, and returns the newly decoded instructions in visit
// order. It consumes work.
func (r *Result) walk(work []uint64) []visit {
	var visits []visit
	var buf [4]byte
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		for {
			g := r.regionOf(pc)
			if g == nil {
				break
			}
			off := pc - g.base
			w, bit := off>>6, uint64(1)<<(off&63)
			if (g.insn[w]|g.bad[w])&bit != 0 {
				break
			}
			sec := g.sec
			if !r.exact {
				if sec = r.img.SectionAt(pc); sec == nil || sec.Perm&obj.PermX == 0 {
					break
				}
			}
			n := copy(buf[:], sec.Data[pc-sec.Addr:])
			inst, err := riscv.Decode(buf[:n])
			if err != nil {
				// Reserved/illegal encodings terminate the path; they are
				// recorded so rewriters can report coverage.
				if !errors.Is(err, riscv.ErrTruncated) {
					g.bad[w] |= bit
				}
				break
			}
			g.insn[w] |= bit
			visits = append(visits, visit{pc, inst})

			switch {
			case inst.Op == riscv.JAL:
				target := pc + uint64(inst.Imm)
				work = append(work, target)
				if inst.Rd == riscv.RA {
					// A call returns: continue at the fallthrough.
					pc += uint64(inst.Len)
					continue
				}
				pc = target
				continue
			case inst.Op == riscv.JALR:
				if inst.Rd == riscv.RA {
					// Indirect call; assume it returns.
					pc += uint64(inst.Len)
					continue
				}
				// Indirect jump (including ret): path ends here.
			case inst.IsBranch():
				work = append(work, pc+uint64(inst.Imm))
				pc += uint64(inst.Len)
				continue
			default:
				// Environment calls return; ebreak may too (debugger).
				pc += uint64(inst.Len)
				continue
			}
			break
		}
	}
	return visits
}

// layout rebuilds Order, Insts and the derived lists from the bitmaps:
// addresses come out of a linear scan, and every known instruction — the
// previous layout's and the new visits — lands at its rank.
func (r *Result) layout(order []uint64, insts []riscv.Inst, visits []visit) {
	total := 0
	for i := range r.regs {
		g := &r.regs[i]
		for w, word := range g.insn {
			g.rank[w] = int32(total)
			total += bits.OnesCount64(word)
		}
	}
	r.Order = make([]uint64, 0, total)
	for _, g := range r.regs {
		for w, word := range g.insn {
			for ; word != 0; word &= word - 1 {
				r.Order = append(r.Order, g.base+uint64(w)<<6+uint64(bits.TrailingZeros64(word)))
			}
		}
	}
	r.Insts = make([]riscv.Inst, total)
	for i, pc := range order {
		j, _ := r.Index(pc)
		r.Insts[j] = insts[i]
	}
	for _, v := range visits {
		j, _ := r.Index(v.pc)
		r.Insts[j] = v.inst
	}

	r.Calls, r.IndirectJumps, r.Undecodable = nil, nil, nil
	for i, in := range r.Insts {
		switch {
		case in.Op == riscv.JAL && in.Rd == riscv.RA:
			r.Calls = append(r.Calls, r.Order[i])
		case in.Op == riscv.JALR:
			if in.Rd == riscv.RA {
				r.Calls = append(r.Calls, r.Order[i])
			}
			r.IndirectJumps = append(r.IndirectJumps, r.Order[i])
		}
	}
	// Decoding is deterministic, so the errors are decoded again here
	// rather than kept per address during the traversal.
	var buf [4]byte
	for _, g := range r.regs {
		for w, word := range g.bad {
			for ; word != 0; word &= word - 1 {
				pc := g.base + uint64(w)<<6 + uint64(bits.TrailingZeros64(word))
				sec := r.img.SectionAt(pc)
				_, err := riscv.Decode(buf[:copy(buf[:], sec.Data[pc-sec.Addr:])])
				r.Undecodable = append(r.Undecodable, BadDecode{Addr: pc, Err: err})
			}
		}
	}
}

// Coverage returns the fraction of executable bytes covered by recognized
// instructions.
func (r *Result) Coverage(img *obj.Image) float64 {
	covered := 0
	for _, in := range r.Insts {
		covered += in.Len
	}
	total := img.CodeSize()
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}
