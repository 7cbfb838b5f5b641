package dis_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/eurosys26p57/chimera/internal/corpus"
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/fuzz"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// refResult is the reference disassembly: the address-keyed map and the
// sorted Order of the disassembler the dense Result replaced.
type refResult struct {
	insns         map[uint64]riscv.Inst
	order         []uint64
	indirectJumps []uint64
	calls         []uint64
	undecodable   map[uint64]error
	roots         []uint64
}

// refDisassemble is the map-and-sort disassembler, kept verbatim as the
// oracle, except that it deduplicates every root (the old code listed an
// entry point that is also a function symbol twice).
func refDisassemble(img *obj.Image, extra []uint64) *refResult {
	res := &refResult{
		insns:       make(map[uint64]riscv.Inst),
		undecodable: make(map[uint64]error),
	}
	work := []uint64{img.Entry}
	for _, sym := range img.FuncSymbols() {
		work = append(work, sym.Addr)
	}
	seen := make(map[uint64]bool, len(work)+len(extra))
	for _, a := range work {
		seen[a] = true
	}
	for _, a := range extra {
		if seen[a] {
			continue
		}
		if sec := img.SectionAt(a); sec == nil || sec.Perm&obj.PermX == 0 {
			continue
		}
		seen[a] = true
		work = append(work, a)
	}
	res.roots = append([]uint64(nil), work...)
	sort.Slice(res.roots, func(i, j int) bool { return res.roots[i] < res.roots[j] })
	res.roots = slices.Compact(res.roots)

	var buf [4]byte
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		for {
			if _, seen := res.insns[pc]; seen {
				break
			}
			if _, bad := res.undecodable[pc]; bad {
				break
			}
			sec := img.SectionAt(pc)
			if sec == nil || sec.Perm&obj.PermX == 0 {
				break
			}
			n := copy(buf[:], sec.Data[pc-sec.Addr:])
			inst, err := riscv.Decode(buf[:n])
			if err != nil {
				if !errors.Is(err, riscv.ErrTruncated) {
					res.undecodable[pc] = err
				}
				break
			}
			res.insns[pc] = inst

			switch {
			case inst.Op == riscv.JAL:
				target := pc + uint64(inst.Imm)
				work = append(work, target)
				if inst.Rd == riscv.RA {
					res.calls = append(res.calls, pc)
					pc += uint64(inst.Len)
					continue
				}
				pc = target
				continue
			case inst.Op == riscv.JALR:
				if inst.Rd == riscv.RA {
					res.calls = append(res.calls, pc)
					res.indirectJumps = append(res.indirectJumps, pc)
					pc += uint64(inst.Len)
					continue
				}
				res.indirectJumps = append(res.indirectJumps, pc)
			case inst.IsBranch():
				work = append(work, pc+uint64(inst.Imm))
				pc += uint64(inst.Len)
				continue
			default:
				pc += uint64(inst.Len)
				continue
			}
			break
		}
	}

	res.order = make([]uint64, 0, len(res.insns))
	for a := range res.insns {
		res.order = append(res.order, a)
	}
	sort.Slice(res.order, func(i, j int) bool { return res.order[i] < res.order[j] })
	sort.Slice(res.indirectJumps, func(i, j int) bool { return res.indirectJumps[i] < res.indirectJumps[j] })
	sort.Slice(res.calls, func(i, j int) bool { return res.calls[i] < res.calls[j] })
	return res
}

// diffResult reports the first disagreement between a dense Result and
// the reference, or "".
func diffResult(img *obj.Image, got *dis.Result, want *refResult) string {
	if !slices.Equal(got.Order, want.order) {
		return fmt.Sprintf("Order: %d addresses, want %d", len(got.Order), len(want.order))
	}
	if len(got.Insts) != len(got.Order) {
		return fmt.Sprintf("Insts has %d entries for %d addresses", len(got.Insts), len(got.Order))
	}
	for i, a := range got.Order {
		if got.Insts[i] != want.insns[a] {
			return fmt.Sprintf("Insts[%d] at %#x = %v, want %v", i, a, got.Insts[i], want.insns[a])
		}
	}
	// At and Index over every executable byte and the bytes around each
	// section: hits at exactly the recognized addresses.
	for _, sec := range img.Sections {
		lo, hi := sec.Addr, sec.End()
		if sec.Perm&obj.PermX == 0 {
			hi = min(hi, lo+64)
		}
		for a := lo - min(lo, 4); a < hi+4; a++ {
			in, ok := got.At(a)
			win, wok := want.insns[a]
			if ok != wok || in != win {
				return fmt.Sprintf("At(%#x) = %v/%v, want %v/%v", a, in, ok, win, wok)
			}
			if i, ok := got.Index(a); ok && got.Order[i] != a {
				return fmt.Sprintf("Index(%#x) = %d, which holds %#x", a, i, got.Order[i])
			}
		}
	}
	if !slices.Equal(got.Calls, want.calls) {
		return fmt.Sprintf("Calls = %#x, want %#x", got.Calls, want.calls)
	}
	if !slices.Equal(got.IndirectJumps, want.indirectJumps) {
		return fmt.Sprintf("IndirectJumps = %#x, want %#x", got.IndirectJumps, want.indirectJumps)
	}
	if len(got.Undecodable) != len(want.undecodable) {
		return fmt.Sprintf("Undecodable has %d entries, want %d", len(got.Undecodable), len(want.undecodable))
	}
	for i, bad := range got.Undecodable {
		werr, ok := want.undecodable[bad.Addr]
		if !ok || bad.Err.Error() != werr.Error() || (i > 0 && got.Undecodable[i-1].Addr >= bad.Addr) {
			return fmt.Sprintf("Undecodable[%d] = %#x: %v, want %v", i, bad.Addr, bad.Err, werr)
		}
	}
	if !slices.Equal(got.Roots, want.roots) {
		return fmt.Sprintf("Roots = %#x, want %#x", got.Roots, want.roots)
	}
	return ""
}

// oracleImage is one named disassembler input.
type oracleImage struct {
	name string
	img  *obj.Image
}

// oracleImages gathers the oracle's inputs: every corpus family, the SPEC
// and real-world workload shapes at a small code size, scalar and vector,
// and fuzz-generated programs.
func oracleImages(t *testing.T) []oracleImage {
	t.Helper()
	var out []oracleImage
	for _, f := range corpus.Families() {
		for seed := int64(1); seed <= 2; seed++ {
			p, err := f.Build(seed)
			if err != nil {
				t.Fatalf("corpus %s/%d: %v", f.Name, seed, err)
			}
			out = append(out, oracleImage{fmt.Sprintf("corpus/%s/%d", f.Name, seed), p.Image})
		}
	}
	cases := append(workload.SpecSuite(), workload.RealWorldSuite()...)
	for i, c := range cases {
		if testing.Short() && i%4 != 0 {
			continue
		}
		p := c.Params
		p.CodeKB, p.Rounds = 16, 4
		for _, vector := range []bool{false, true} {
			img, err := workload.BuildSpec(p, vector)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			out = append(out, oracleImage{fmt.Sprintf("workload/%s/v=%v", p.Name, vector), img})
		}
	}
	for seed := int64(1); seed <= 24; seed++ {
		spec := fuzz.Generate(seed, fuzz.DefaultConfig())
		img, _, err := spec.Assemble()
		if err != nil {
			t.Fatalf("fuzz seed %d: %v", seed, err)
		}
		out = append(out, oracleImage{fmt.Sprintf("fuzz/%d", seed), img})
	}
	return out
}

// adversarialRoots picks extra roots that stress the traversal: odd
// addresses, every halfword of a window (overlapping decode paths, many
// undecodable), random executable bytes, roots in non-executable sections
// and addresses outside the image.
func adversarialRoots(img *obj.Image, rng *rand.Rand) []uint64 {
	var roots []uint64
	for _, sec := range img.Sections {
		if sec.End() <= sec.Addr {
			continue
		}
		size := sec.End() - sec.Addr
		if sec.Perm&obj.PermX == 0 {
			roots = append(roots, sec.Addr, sec.Addr+size/2)
			continue
		}
		roots = append(roots, sec.Addr+1, sec.Addr+size/2|1, sec.End()-1, sec.End()-2, sec.End())
		w := sec.Addr + uint64(rng.Int63n(int64(size)))&^1
		for a := w; a < w+48 && a < sec.End(); a += 2 {
			roots = append(roots, a)
		}
		for i := 0; i < 16; i++ {
			roots = append(roots, sec.Addr+uint64(rng.Int63n(int64(size))))
		}
	}
	return append(roots, img.Entry, 0, ^uint64(0), 0x7)
}

// TestDenseMatchesReference checks the dense disassembler against the
// reference on every oracle input: plain, with adversarial extra roots in
// one traversal, and extended from half the roots to all of them.
func TestDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, in := range oracleImages(t) {
		img := in.img
		if d := diffResult(img, dis.Disassemble(img), refDisassemble(img, nil)); d != "" {
			t.Fatalf("%s plain: %s", in.name, d)
		}
		extra := adversarialRoots(img, rng)
		want := refDisassemble(img, extra)
		if d := diffResult(img, dis.DisassembleWithRoots(img, extra), want); d != "" {
			t.Fatalf("%s with roots: %s", in.name, d)
		}
		a, b := extra[:len(extra)/2], extra[len(extra)/2:]
		base := dis.DisassembleWithRoots(img, a)
		before := slices.Clone(base.Order)
		if d := diffResult(img, base.Extend(b), want); d != "" {
			t.Fatalf("%s extended: %s", in.name, d)
		}
		if d := diffResult(img, base, refDisassemble(img, a)); d != "" || !slices.Equal(before, base.Order) {
			t.Fatalf("%s: Extend changed its receiver: %s", in.name, d)
		}
	}
}

// TestExtendDecodesOnce checks that a chain of extensions — the resolver's
// fixpoint — decodes each recognized instruction once in total.
func TestExtendDecodesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, in := range oracleImages(t) {
		extra := adversarialRoots(in.img, rng)
		d := dis.Disassemble(in.img)
		for len(extra) > 0 {
			k := min(len(extra), 7)
			d, extra = d.Extend(extra[:k]), extra[k:]
		}
		if got := dis.Decoded(d); got != len(d.Order) {
			t.Fatalf("%s: %d decodes for %d instructions", in.name, got, len(d.Order))
		}
	}
}

// fuzzImage builds an image from fuzzer bytes: the code section at a fixed
// base, a small data section after it, and roots read as 16-bit offsets
// from the base (some land in data or past the image). The low bits of
// overlap make the image invalid in the ways a decoded wire image can be:
// bit 0 moves the data section onto the code's second half, bit 1 adds a
// second executable copy of the code a quarter in; both are listed ahead
// of the code so obj.Image.SectionAt prefers them.
func fuzzImage(code, rootBytes []byte, overlap uint8) (*obj.Image, []uint64) {
	const base = 0x10000
	img := &obj.Image{Name: "fuzz", Entry: base, ISA: riscv.RV64GCV}
	text := &obj.Section{Name: obj.SecText, Addr: base, Data: code, Perm: obj.PermRX}
	data := &obj.Section{Name: obj.SecData, Addr: obj.AlignUp(base+uint64(len(code)), 16),
		Data: make([]byte, 32), Perm: obj.PermRW}
	if overlap&1 != 0 {
		data.Addr = base + uint64(len(code)/2)
	}
	if overlap&2 != 0 {
		img.Sections = append(img.Sections, &obj.Section{Name: ".text2",
			Addr: base + uint64(len(code)/4), Data: code, Perm: obj.PermRX})
	}
	img.Sections = append(img.Sections, data, text)
	var roots []uint64
	for i := 0; i+1 < len(rootBytes); i += 2 {
		roots = append(roots, base+uint64(rootBytes[i])|uint64(rootBytes[i+1])<<8)
	}
	if len(roots) > 0 {
		img.Entry = roots[0]
		img.Symbols = append(img.Symbols, obj.Symbol{Name: "f", Addr: roots[len(roots)-1], Kind: obj.SymFunc})
	}
	return img, roots
}

// FuzzDisassemble checks the dense disassembler against the reference on
// arbitrary code bytes and roots, in one traversal and extended from the
// first half of the roots to all of them.
func FuzzDisassemble(f *testing.F) {
	f.Add([]byte{0x13, 0, 0, 0, 0x73, 0, 0, 0}, []byte{0, 0, 2, 0}, uint8(0))
	f.Add([]byte{0x01, 0x00, 0x6f, 0xf0, 0xdf, 0xff, 0x1f, 0, 0, 0}, []byte{1, 0, 2, 0, 3, 0, 6, 0}, uint8(0))
	f.Add([]byte{0x63, 0x04, 0x00, 0x00, 0x82, 0x80, 0xef, 0x00, 0x80, 0x00, 0x67, 0x80, 0x00, 0x00}, []byte{0, 0, 4, 0, 9, 0, 0x40, 0}, uint8(1))
	f.Add([]byte{0x01, 0x00, 0x01, 0x00, 0x13, 0, 0, 0, 0x6f, 0xf0, 0x9f, 0xff, 0x01, 0x00, 0x82, 0x80}, []byte{0, 0, 2, 0, 6, 0, 12, 0}, uint8(3))
	f.Fuzz(func(t *testing.T, code, rootBytes []byte, overlap uint8) {
		if len(code) > 1<<12 || len(rootBytes) > 64 {
			return
		}
		img, roots := fuzzImage(code, rootBytes, overlap)
		want := refDisassemble(img, roots)
		if d := diffResult(img, dis.DisassembleWithRoots(img, roots), want); d != "" {
			t.Fatalf("one traversal: %s", d)
		}
		ext := dis.DisassembleWithRoots(img, roots[:len(roots)/2]).Extend(roots[len(roots)/2:])
		if d := diffResult(img, ext, want); d != "" {
			t.Fatalf("extended: %s", d)
		}
	})
}
