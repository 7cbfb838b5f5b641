package chbp

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// SmileJalrImm is the fixed 12-bit immediate of the compressed-mode SMILE
// jalr. It is chosen so the instruction's upper 16-bit parcel (with rs1=gp)
// decodes as the reserved compressed encoding "c.lui x1, 0": a jump into the
// middle of the trampoline (the paper's P3) raises a deterministic
// illegal-instruction fault (§4.2, Fig. 7b).
const SmileJalrImm = 1544

// smileAuipcMask forces bits 4-8 of the auipc's 20-bit immediate to 11111 in
// compressed mode, making the upper parcel a reserved >=48-bit instruction
// prefix (the paper's P2; Fig. 7a).
const smileAuipcBits = 0x1F << 4

// TrampolineKind selects the entry-trampoline strategy.
type TrampolineKind uint8

// Trampoline kinds.
const (
	// SMILE is Chimera's secure multiple-instruction long-distance
	// trampoline (the default), built on the ABI gp register.
	SMILE TrampolineKind = iota
	// TrapEntry is the strawman: every patch enters through an ebreak trap.
	TrapEntry
	// GeneralReg is the Fig. 5 variant for ISAs without a gp-like register:
	// the trampoline overwrites a preceding "lui rX, hi ; load rY, lo(rX)"
	// memory-access pair, reusing rX — whose unmodified value points into
	// the data segment — as the jump register. Sites with no such preceding
	// sequence fall back to traps, which is the added cost the paper notes
	// for gp-less ISAs (§3.3).
	GeneralReg
)

// EncodeGeneralSmile encodes the Fig. 5 trampoline at s jumping to t
// through register rd.
func EncodeGeneralSmile(s, t uint64, rd riscv.Reg) ([8]byte, error) {
	var out [8]byte
	delta := int64(t) - int64(s)
	hi := (delta + 0x800) >> 12
	lo := delta - hi<<12
	if hi < -(1<<19) || hi >= 1<<19 {
		return out, fmt.Errorf("chbp: target %#x out of ±2GB range from %#x", t, s)
	}
	binary.LittleEndian.PutUint32(out[:4],
		riscv.MustEncode(riscv.Inst{Op: riscv.AUIPC, Rd: rd, Imm: hi}))
	binary.LittleEndian.PutUint32(out[4:],
		riscv.MustEncode(riscv.Inst{Op: riscv.JALR, Rd: rd, Rs1: rd, Imm: lo}))
	return out, nil
}

// EncodeSmile encodes the 8-byte SMILE trampoline at source address s
// jumping to target t. compressed selects the encoding that is also safe
// against mid-trampoline jump targets (P2/P3).
func EncodeSmile(s, t uint64, compressed bool) ([8]byte, error) {
	var out [8]byte
	delta := int64(t) - int64(s)
	var hi, lo int64
	if compressed {
		lo = SmileJalrImm
		hi = (delta - lo) >> 12
		if (delta-lo)&0xFFF != 0 {
			return out, fmt.Errorf("chbp: target %#x not reachable from %#x with fixed jalr imm", t, s)
		}
		if hi>>4&0x1F != 0x1F {
			return out, fmt.Errorf("chbp: auipc imm %#x lacks the P2 illegal-prefix bits", hi)
		}
	} else {
		hi = (delta + 0x800) >> 12
		lo = delta - hi<<12
	}
	if hi < -(1<<19) || hi >= 1<<19 {
		return out, fmt.Errorf("chbp: target %#x out of ±2GB range from %#x", t, s)
	}
	auipc := riscv.MustEncode(riscv.Inst{Op: riscv.AUIPC, Rd: riscv.GP, Imm: hi})
	jalr := riscv.MustEncode(riscv.Inst{Op: riscv.JALR, Rd: riscv.GP, Rs1: riscv.GP, Imm: lo})
	binary.LittleEndian.PutUint32(out[:4], auipc)
	binary.LittleEndian.PutUint32(out[4:], jalr)
	return out, nil
}

// blockReq is one target block to place: size bytes entered from a
// trampoline at site. constrained marks a gp-SMILE entry in a compressed
// binary, whose block address the compressed-mode residue rule fixes.
type blockReq struct {
	site, size  uint64
	constrained bool
}

// span is a placed block's address range [start, end).
type span struct{ start, end uint64 }

// packBlocks lays out the target section at or above base and returns each
// block's address (paper §4.2, Fig. 7). For a constrained block with
// trampoline at s, t ≡ s + SmileJalrImm (mod 4096) and the page delta's
// bits 4-8 are all ones, so t may sit on any of 16 consecutive pages that
// recur every 2 MiB. Constrained blocks go first, in site order, each at
// the lowest address of those pages that overlaps no block placed so far;
// the next 2 MiB window is the last resort when all 16 pages are taken at
// that in-page offset. Unconstrained blocks then fill the gaps, 4-aligned,
// in one forward sweep from the first constrained block's page, and append
// after the last block — with no constrained blocks that is a contiguous
// run from base.
func packBlocks(base uint64, reqs []blockReq) []uint64 {
	addrs := make([]uint64, len(reqs))
	var used []span // constrained placements, sorted and disjoint
	for i, r := range reqs {
		if !r.constrained {
			continue
		}
		t := placeConstrained(used, base, r)
		addrs[i] = t
		at := sort.Search(len(used), func(k int) bool { return used[k].start > t })
		used = slices.Insert(used, at, span{t, t + r.size})
	}
	cursor := base
	if len(used) > 0 {
		cursor = used[0].start &^ (obj.PageSize - 1)
	}
	next := 0 // first constrained span not wholly below cursor
	for i, r := range reqs {
		if r.constrained {
			continue
		}
		for {
			t := (cursor + 3) &^ 3
			for next < len(used) && used[next].end <= t {
				next++
			}
			if next == len(used) || t+r.size <= used[next].start {
				addrs[i], cursor = t, t+r.size
				break
			}
			cursor = used[next].end
		}
	}
	return addrs
}

// placeConstrained returns the lowest t >= base that satisfies r's residue
// rule and overlaps no span in used.
func placeConstrained(used []span, base uint64, r blockReq) uint64 {
	anchor := r.site + SmileJalrImm
	var pd uint64 // page delta: t = anchor + pd<<12
	if base > anchor {
		pd = (base - anchor + obj.PageSize - 1) >> 12
	}
	for ; ; pd++ {
		if pd%512 < 496 {
			pd += 496 - pd%512 // up to the next residue window
		}
		t := anchor + pd<<12
		k := sort.Search(len(used), func(k int) bool { return used[k].end > t })
		if k == len(used) || used[k].start >= t+r.size {
			return t
		}
	}
}

// encodeVanilla encodes a vanilla auipc/jalr pair at address a jumping to
// target using register rd (an exit register known to be dead).
func encodeVanilla(a, target uint64, rd riscv.Reg) ([2]riscv.Inst, error) {
	delta := int64(target) - int64(a)
	hi := (delta + 0x800) >> 12
	lo := delta - hi<<12
	if hi < -(1<<19) || hi >= 1<<19 {
		return [2]riscv.Inst{}, fmt.Errorf("chbp: exit target %#x out of range from %#x", target, a)
	}
	return [2]riscv.Inst{
		{Op: riscv.AUIPC, Rd: rd, Imm: hi},
		{Op: riscv.JALR, Rd: riscv.Zero, Rs1: rd, Imm: lo},
	}, nil
}
