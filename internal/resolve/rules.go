package resolve

import (
	"slices"
	"sort"

	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// The rule engine is a forward abstract interpretation over straight-line
// runs of the disassembly. Each register holds one abstract value:
//
//	const  — exact address/integer from lui/auipc/addi/addiw chains
//	idx    — unsigned index with a proven bound (remu/andi/sltiu/bgeu/bltu),
//	         scaled by slli/shNadd into a byte offset with a fixed stride
//	ptr    — table pointer: const base + scaled idx
//	slot   — value loaded from a table slice (ld/lw through ptr) or from a
//	         single statically-known slot (const base or gp-relative)
//	flag   — sltiu/sltu comparison result, remembered so the following
//	         beq/bne can refine the compared register's bound
//
// State is cleared wherever a second statically-visible path can join the
// run (jump targets, roots, gaps), so a fact can never leak across a
// merge it does not dominate. The one cross-run fact is the bltu bound:
// `bltu idx, bound, L` proves idx < bound on the TAKEN side, so the bound
// is forwarded to L when L has no other statically-visible predecessor.
type absKind uint8

const (
	kNone absKind = iota
	kConst
	kIdx
	kPtr
	kSlot
	kFlag
)

type absVal struct {
	kind   absKind
	val    uint64    // const value | ptr/slot base address
	count  uint64    // entries provable for idx/ptr/slot (1 for single slot)
	stride uint64    // bytes per index step (idx/ptr), table stride (slot)
	width  int       // load width for slot (4 or 8)
	src    riscv.Reg // compared register for flag
	signed bool      // bound came from signed rem: not exhaustive
}

// bltuFwd is the bound a `bltu` forwards to its target: ok marks a target
// eligible for forwarding, reg/bound the bound the main pass found.
type bltuFwd struct {
	ok    bool
	reg   riscv.Reg
	bound uint64
}

type interp struct {
	img     *obj.Image
	d       *dis.Result
	ptrs    []codePtr
	anchors map[uint64]bool
	// jumpCount counts, per instruction (indexed like d.Order), the
	// statically-visible jumps/branches into it; >0 means a side entry
	// exists and linear facts must reset.
	jumpCount []int32
	// bltuBound forwards `bltu reg, const, L` bounds to L (see above),
	// indexed like d.Order.
	bltuBound []bltuFwd
	st        [32]absVal
	ts        *TargetSet
	facts     map[string]int
}

// analyze runs the rule engine over one disassembly iteration.
func analyze(img *obj.Image, d *dis.Result, ptrs []codePtr) *TargetSet {
	it := &interp{
		img:     img,
		d:       d,
		ptrs:    ptrs,
		anchors: anchorSet(d.Roots),
		ts:      &TargetSet{Sites: make(map[uint64]*Site)},
		facts:   make(map[string]int),
	}
	it.facts["code-pointer"] = len(ptrs)
	it.facts["anchor"] = len(it.anchors)
	it.indexFlow()
	it.run()
	it.ts.FactCounts = it.facts
	sort.Slice(it.ts.Tables, func(i, j int) bool { return it.ts.Tables[i].Base < it.ts.Tables[j].Base })
	return it.ts
}

// indexFlow records every statically-visible jump/branch target and the
// single-predecessor bltu bound forwards.
func (it *interp) indexFlow() {
	d := it.d
	it.jumpCount = make([]int32, len(d.Order))
	it.bltuBound = make([]bltuFwd, len(d.Order))
	for i, in := range d.Insts {
		if in.Op == riscv.JAL || in.IsBranch() {
			if j, ok := d.Index(d.Order[i] + uint64(in.Imm)); ok {
				it.jumpCount[j]++
			}
		}
	}
	// Second pass: a bltu bound is forwardable only when its target has
	// exactly one statically-visible in-edge (the bltu itself) and is not
	// a root (roots can be entered indirectly).
	for i, in := range d.Insts {
		if in.Op != riscv.BLTU {
			continue
		}
		tgt := d.Order[i] + uint64(in.Imm)
		j, ok := d.Index(tgt)
		if !ok || it.jumpCount[j] != 1 {
			continue
		}
		if _, root := slices.BinarySearch(d.Roots, tgt); root {
			continue
		}
		// Reconstruct the bound from the state at the branch during the
		// main pass; here we only note eligibility.
		it.bltuBound[j] = bltuFwd{ok: true, reg: riscv.Zero}
	}
}

func (it *interp) clear() {
	for i := range it.st {
		it.st[i] = absVal{}
	}
}

func (it *interp) get(r riscv.Reg) absVal {
	if r == riscv.Zero {
		return absVal{kind: kConst, val: 0}
	}
	return it.st[r]
}

func (it *interp) set(r riscv.Reg, v absVal) {
	if r != riscv.Zero {
		it.st[r] = v
	}
}

// killCallerSaved models an ABI call boundary.
func (it *interp) killCallerSaved() {
	it.st[riscv.RA] = absVal{}
	for r := riscv.T0; r <= riscv.T2; r++ {
		it.st[r] = absVal{}
	}
	for r := riscv.A0; r <= riscv.A7; r++ {
		it.st[r] = absVal{}
	}
	for r := riscv.T3; r <= riscv.T6; r++ {
		it.st[r] = absVal{}
	}
}

func sext32(v uint64) uint64 { return uint64(int64(int32(uint32(v)))) }

// run walks the disassembly in address order, segmenting into
// straight-line runs and applying the transfer rules.
func (it *interp) run() {
	prevEnd := uint64(0)
	cont := false // previous instruction falls through into this one
	for i, in := range it.d.Insts {
		pc := it.d.Order[i]
		if !cont || pc != prevEnd {
			it.clear()
			if fwd := it.bltuBound[i]; fwd.ok && fwd.reg != riscv.Zero && fwd.bound > 0 {
				it.set(fwd.reg, absVal{kind: kIdx, val: 0, count: fwd.bound, stride: 1})
			}
		} else if it.jumpCount[i] > 0 {
			// A statically-visible side entry joins here: linear facts
			// from the fallthrough path do not dominate this point.
			it.clear()
		}
		prevEnd = pc + uint64(in.Len)
		cont = it.transfer(pc, in)
	}
}

// transfer applies one instruction's rule and reports whether the run
// continues at the fallthrough.
func (it *interp) transfer(pc uint64, in riscv.Inst) bool {
	switch in.Op {
	case riscv.LUI:
		it.set(in.Rd, absVal{kind: kConst, val: uint64(in.Imm << 12)})
		it.facts["materialization"]++
	case riscv.AUIPC:
		it.set(in.Rd, absVal{kind: kConst, val: pc + uint64(in.Imm<<12)})
		it.facts["materialization"]++
	case riscv.ADDI:
		a := it.get(in.Rs1)
		switch {
		case a.kind == kConst:
			it.set(in.Rd, absVal{kind: kConst, val: a.val + uint64(in.Imm)})
			it.facts["materialization"]++
		case in.Imm == 0:
			it.set(in.Rd, a) // mv
		default:
			it.set(in.Rd, absVal{})
		}
	case riscv.ADDIW:
		a := it.get(in.Rs1)
		switch {
		case a.kind == kConst:
			it.set(in.Rd, absVal{kind: kConst, val: sext32(a.val + uint64(in.Imm))})
			it.facts["materialization"]++
		case in.Imm == 0 && a.kind == kIdx && a.count*a.stride < 1<<31:
			it.set(in.Rd, a) // sext.w of a small bounded index is identity
		default:
			it.set(in.Rd, absVal{})
		}
	case riscv.SLLI, riscv.SLLIW:
		a := it.get(in.Rs1)
		sh := uint(in.Imm) & 63
		switch {
		case a.kind == kConst && in.Op == riscv.SLLI:
			it.set(in.Rd, absVal{kind: kConst, val: a.val << sh})
		case a.kind == kIdx && a.count<<sh < 1<<31:
			a.stride <<= sh
			it.set(in.Rd, a)
		default:
			it.set(in.Rd, absVal{})
		}
	case riscv.ANDI:
		if in.Imm >= 0 && in.Imm < 1<<16 {
			it.set(in.Rd, absVal{kind: kIdx, count: uint64(in.Imm) + 1, stride: 1})
			it.facts["bound"]++
		} else {
			it.set(in.Rd, absVal{})
		}
	case riscv.REMU, riscv.REMUW:
		b := it.get(in.Rs2)
		if b.kind == kConst && b.val > 0 && b.val <= 1<<16 {
			it.set(in.Rd, absVal{kind: kIdx, count: b.val, stride: 1})
			it.facts["bound"]++
		} else {
			it.set(in.Rd, absVal{})
		}
	case riscv.REM, riscv.REMW:
		// A signed remainder of an unknown value may be negative, so the
		// bound is real only for nonnegative inputs we cannot prove:
		// the fact survives but is tainted and can never reach High.
		b := it.get(in.Rs2)
		if b.kind == kConst && b.val > 0 && b.val <= 1<<16 {
			it.set(in.Rd, absVal{kind: kIdx, count: b.val, stride: 1, signed: true})
			it.facts["bound"]++
		} else {
			it.set(in.Rd, absVal{})
		}
	case riscv.SLTIU:
		if in.Imm > 0 {
			it.set(in.Rd, absVal{kind: kFlag, src: in.Rs1, count: uint64(in.Imm)})
			it.facts["bound"]++
		} else {
			it.set(in.Rd, absVal{})
		}
	case riscv.SLTU:
		b := it.get(in.Rs2)
		if b.kind == kConst && b.val > 0 {
			it.set(in.Rd, absVal{kind: kFlag, src: in.Rs1, count: b.val})
			it.facts["bound"]++
		} else {
			it.set(in.Rd, absVal{})
		}
	case riscv.ADD:
		a, b := it.get(in.Rs1), it.get(in.Rs2)
		switch {
		// add rd, zero, x (c.mv expands here) is a plain copy.
		case a.kind == kConst && a.val == 0 && b.kind != kConst:
			it.set(in.Rd, b)
		case b.kind == kConst && b.val == 0 && a.kind != kConst:
			it.set(in.Rd, a)
		case a.kind == kConst && b.kind == kConst:
			it.set(in.Rd, absVal{kind: kConst, val: a.val + b.val})
		case a.kind == kConst && b.kind == kIdx && b.stride > 0:
			it.set(in.Rd, absVal{kind: kPtr, val: a.val, count: b.count, stride: b.stride, signed: b.signed})
		case b.kind == kConst && a.kind == kIdx && a.stride > 0:
			it.set(in.Rd, absVal{kind: kPtr, val: b.val, count: a.count, stride: a.stride, signed: a.signed})
		default:
			it.set(in.Rd, absVal{})
		}
	case riscv.SH1ADD, riscv.SH2ADD, riscv.SH3ADD:
		sh := uint(1 + in.Op - riscv.SH1ADD)
		a, b := it.get(in.Rs1), it.get(in.Rs2)
		if a.kind == kIdx && b.kind == kConst && a.count<<sh < 1<<31 {
			it.set(in.Rd, absVal{kind: kPtr, val: b.val, count: a.count, stride: a.stride << sh, signed: a.signed})
		} else if a.kind == kConst && b.kind == kConst {
			it.set(in.Rd, absVal{kind: kConst, val: (a.val << sh) + b.val})
		} else {
			it.set(in.Rd, absVal{})
		}
	case riscv.LD, riscv.LW, riscv.LWU:
		it.load(pc, in)
	case riscv.BEQ, riscv.BNE:
		// sltiu/sltu flag refinement: `sltiu f, x, B; bne f, zero, L`
		// proves x < B on the taken side; `beq f, zero, L` proves it on
		// the fallthrough. Only the fallthrough refinement is applied
		// here; the taken side starts its own run.
		a := it.get(in.Rs1)
		if a.kind == kFlag && in.Rs2 == riscv.Zero && in.Op == riscv.BEQ {
			it.set(a.src, absVal{kind: kIdx, count: a.count, stride: 1})
		}
	case riscv.BGEU:
		// `bgeu x, bound, L`: the fallthrough proves x < bound.
		b := it.get(in.Rs2)
		if b.kind == kConst && b.val > 0 && b.val <= 1<<16 {
			it.set(in.Rs1, absVal{kind: kIdx, count: b.val, stride: 1})
			it.facts["bound"]++
		}
	case riscv.BLTU:
		// `bltu x, bound, L`: the TAKEN side proves x < bound. Forward
		// the bound to L when L's only static in-edge is this branch.
		b := it.get(in.Rs2)
		j, ok := it.d.Index(pc + uint64(in.Imm))
		if ok && it.bltuBound[j].ok && b.kind == kConst && b.val > 0 && b.val <= 1<<16 {
			it.bltuBound[j].reg, it.bltuBound[j].bound = in.Rs1, b.val
			it.facts["bound"]++
		}
	case riscv.JAL:
		if in.Rd == riscv.RA {
			it.killCallerSaved()
			return true
		}
		return false
	case riscv.JALR:
		it.site(pc, in)
		if in.Rd == riscv.RA {
			it.killCallerSaved()
			return true
		}
		return false
	case riscv.ECALL:
		// The syscall ABI clobbers a0/a1.
		it.set(riscv.A0, absVal{})
		it.set(riscv.A1, absVal{})
	case riscv.EBREAK:
		// A trap handler may resume with arbitrary register state.
		it.clear()
	default:
		if in.IsBranch() {
			break // no register effects
		}
		// Any unmodeled instruction kills its destination. Stores and
		// branches carry Rd==0, so this is a no-op for them.
		it.set(in.Rd, absVal{})
	}
	return true
}

// load applies the slice rules for ld/lw/lwu.
func (it *interp) load(pc uint64, in riscv.Inst) {
	width := 8
	if in.Op != riscv.LD {
		width = 4
	}
	a := it.get(in.Rs1)
	switch {
	case a.kind == kPtr && int(a.stride) == width && !hasOverflow(a.val, uint64(in.Imm), a.count*a.stride):
		// A shifted-index slice: base + idx*stride, stride == width.
		it.set(in.Rd, absVal{
			kind: kSlot, val: a.val + uint64(in.Imm),
			count: a.count, stride: a.stride, width: width, signed: a.signed,
		})
		it.facts["slice"]++
	case a.kind == kConst:
		it.set(in.Rd, absVal{kind: kSlot, val: a.val + uint64(in.Imm), count: 1, width: width})
		it.facts["slice"]++
	case in.Rs1 == riscv.GP && a.kind == kNone && it.img.GP != 0:
		// gp-relative load from a statically-known slot.
		it.set(in.Rd, absVal{kind: kSlot, val: it.img.GP + uint64(in.Imm), count: 1, width: width})
		it.facts["slice"]++
	default:
		it.set(in.Rd, absVal{})
	}
}

func hasOverflow(base, off, extent uint64) bool {
	return base+off < base || base+off+extent < base+off
}

// maxWeakCandidates caps how many code-pointer-constant candidates an
// unresolved site may accumulate.
const maxWeakCandidates = 64

// site applies the site rules at a jalr.
func (it *interp) site(pc uint64, in riscv.Inst) {
	if in.Rs1 == riscv.RA && in.Imm == 0 && in.Rd == riscv.Zero {
		return // plain return: targets are return addresses, not data flow
	}
	s := &Site{Addr: pc, Call: in.Rd == riscv.RA}
	it.ts.Sites[pc] = s
	v := it.get(in.Rs1)
	switch {
	case v.kind == kConst:
		tgt := (v.val + uint64(in.Imm)) &^ 1
		if validCode(it.img, tgt) {
			s.Targets = append(s.Targets, Target{Addr: tgt, Tier: TierHigh, Rule: "const-target"})
			s.Exhaustive = true
			return
		}
	case v.kind == kSlot && in.Imm == 0 && v.count == 1:
		if it.singleSlot(s, v) {
			return
		}
	case v.kind == kSlot && in.Imm == 0 && v.count > 1:
		if it.tableSlice(s, v) {
			return
		}
	}
	// Unresolved: fall back to the weak code-pointer-constant facts.
	for _, p := range it.ptrs {
		if len(s.Targets) >= maxWeakCandidates {
			break
		}
		tier := TierMedium
		rule := "rodata-code-pointer"
		if p.Writable {
			tier = TierLow
			rule = "data-code-pointer"
		}
		s.Targets = append(s.Targets, Target{Addr: p.Target, Tier: tier, Rule: rule})
	}
	sortTargets(s)
}

// singleSlot resolves a jalr through one statically-known pointer slot.
// It reports whether the slot yielded a candidate.
func (it *interp) singleSlot(s *Site, v absVal) bool {
	vals, sec, ok := readTable(it.img, v.val, 1, v.width)
	if !ok || !validCode(it.img, vals[0]) {
		return false
	}
	writable := sec.Perm&obj.PermW != 0
	tier := TierHigh
	rule := "slot-load"
	switch {
	case !writable:
		rule = "rodata-slot-load"
	case it.anchors[vals[0]]:
		rule = "anchored-slot-load"
	default:
		tier = TierMedium
	}
	s.Targets = append(s.Targets, Target{Addr: vals[0], Tier: tier, Rule: rule})
	s.Exhaustive = tier == TierHigh
	return true
}

// tableSlice resolves a complete bounded jump-table slice. It reports
// whether the slice yielded candidates.
func (it *interp) tableSlice(s *Site, v absVal) bool {
	vals, sec, ok := readTable(it.img, v.val, int(v.count), v.width)
	if !ok {
		return false
	}
	writable := sec.Perm&obj.PermW != 0
	allValid, allAnchored := true, true
	for _, t := range vals {
		if !validCode(it.img, t) {
			allValid = false
		}
		if !it.anchors[t] {
			allAnchored = false
		}
	}
	tier := TierMedium
	rule := "table-slice"
	if allValid && !v.signed {
		switch {
		case !writable:
			tier = TierHigh
			rule = "rodata-table-slice"
		case allAnchored:
			tier = TierHigh
			rule = "anchored-table-slice"
		}
	}
	if allValid {
		tbl := Table{
			Base: v.val, Stride: v.width, Count: int(v.count),
			Section: sec.Name, Writable: writable,
		}
		s.Table = &tbl
		it.ts.Tables = append(it.ts.Tables, tbl)
	}
	seen := make(map[uint64]bool, len(vals))
	for _, t := range vals {
		if !validCode(it.img, t) || seen[t] {
			continue
		}
		seen[t] = true
		s.Targets = append(s.Targets, Target{Addr: t, Tier: tier, Rule: rule})
	}
	s.Exhaustive = allValid && tier == TierHigh
	sortTargets(s)
	return len(s.Targets) > 0
}

func sortTargets(s *Site) {
	sort.Slice(s.Targets, func(i, j int) bool {
		if s.Targets[i].Addr != s.Targets[j].Addr {
			return s.Targets[i].Addr < s.Targets[j].Addr
		}
		return s.Targets[i].Tier > s.Targets[j].Tier
	})
}
