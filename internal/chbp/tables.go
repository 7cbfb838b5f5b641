// Package chbp implements CHBP, the Correct and High-performance Binary
// Patching method at the core of Chimera (§4). It rewrites an image for a
// target core's ISA by translating source instructions (downgrade/upgrade)
// and patching SMILE trampolines over them, building the fault-handling
// table the runtime uses to recover the deterministic faults that erroneous
// executions trigger.
package chbp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"github.com/eurosys26p57/chimera/internal/obj"
)

// Tables is the runtime metadata of a rewritten binary (§4.3). The kernel
// consults it to recover deterministic faults, to route trap-based
// trampolines and, for the regeneration baselines, to translate addresses
// and check indirect jumps. It is embedded in the rewritten image as a
// section (Marshal) so the binary stays self-contained: the image alone is
// everything the kernel needs to run it.
type Tables struct {
	// GP is the ABI global-pointer value of the binary; the fault handler
	// restores it after a partially-executed SMILE trampoline clobbered it.
	GP uint64
	// Redirect maps an overwritten original-instruction address (the paper's
	// P1/P2/P3) to the address of its relocated copy in the target section.
	Redirect map[uint64]uint64
	// Trap maps the address of a trap-based trampoline (ebreak) to its
	// target-block entry.
	Trap map[uint64]uint64
	// ExitTrap maps the address of a trap-based *exit* (ebreak at the end of
	// a target block whose exit register could not be found) to the original
	// resume address.
	ExitTrap map[uint64]uint64
	// Spaces maps each SMILE trampoline's start address to the end of its
	// overwritten space (Fig. 4).
	Spaces map[uint64]uint64
	// TargetStart/TargetEnd bound the target-instruction section; the
	// scheduler delays migration while the pc is inside it (§4.3).
	TargetStart, TargetEnd uint64
	// ExitOf maps a target-block entry to the original resume address of its
	// normal exit — the probe point used to delay migrations (§4.3).
	ExitOf map[uint64]uint64
	// Resolved maps the trap address of a pre-materialized site — one whose
	// region was recovered statically by the resolver (Options.Resolve) —
	// to the number of runtime-rewrite faults its pre-built row avoids.
	// The kernel credits the count the first time the site is entered.
	Resolved map[uint64]uint64

	// AddrMap maps each original instruction address to its relocated
	// address (Safer and ARMore regenerate all code). The kernel moves a
	// migrating pc through it. CheckIndirect and Encoded are serialized
	// only with a non-empty AddrMap.
	AddrMap map[uint64]uint64
	// CheckIndirect installs Safer's runtime pointer check on every
	// indirect jump: a target in the original text is translated through
	// AddrMap.
	CheckIndirect bool
	// Encoded is the set of original-space indirect targets Safer encoded
	// statically (the resolver's High-confidence targets); their check
	// never takes the translation-table path.
	Encoded map[uint64]bool
}

// NewTables returns an empty table set.
func NewTables(gp uint64) *Tables {
	return &Tables{
		GP:       gp,
		Redirect: make(map[uint64]uint64),
		Trap:     make(map[uint64]uint64),
		ExitTrap: make(map[uint64]uint64),
		ExitOf:   make(map[uint64]uint64),
		Spaces:   make(map[uint64]uint64),
		Resolved: make(map[uint64]uint64),
	}
}

// InTargetSection reports whether addr lies in generated target code.
func (t *Tables) InTargetSection(addr uint64) bool {
	return addr >= t.TargetStart && addr < t.TargetEnd
}

// sortedKeys returns m's keys in ascending order. Go map iteration order
// is randomized, and Marshal's output is embedded in the image, whose
// bytes are a content address for the rewrite cache — serialization must
// be deterministic.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Marshal serializes the tables for embedding in SecFaultTab. The layout
// is little-endian: GP, TargetStart and TargetEnd as uint64s, then the
// Redirect, Trap, ExitTrap, ExitOf, Spaces and Resolved maps, each a
// uint64 count followed by (key, value) uint64 pairs in key order.
//
// A non-empty AddrMap adds one trailing block of varints: the AddrMap
// count, then per entry in key order the uvarint delta of the original
// address from the previous one and the (signed) varint delta of the
// relocated address from the previous one; CheckIndirect as 0 or 1; the
// Encoded count and its addresses as ascending uvarint deltas.
// Relocation preserves order, so an entry costs about two bytes where a
// fixed pair costs sixteen. CHBP and strawman tables have no trailer.
func (t *Tables) Marshal() []byte {
	var b []byte
	for _, v := range []uint64{t.GP, t.TargetStart, t.TargetEnd} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	for _, m := range []map[uint64]uint64{t.Redirect, t.Trap, t.ExitTrap, t.ExitOf, t.Spaces, t.Resolved} {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(m)))
		for _, k := range sortedKeys(m) {
			b = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(b, k), m[k])
		}
	}
	if len(t.AddrMap) == 0 {
		return b
	}
	b = binary.AppendUvarint(b, uint64(len(t.AddrMap)))
	var prevK, prevV uint64
	for _, k := range sortedKeys(t.AddrMap) {
		v := t.AddrMap[k]
		b = binary.AppendVarint(binary.AppendUvarint(b, k-prevK), int64(v-prevV))
		prevK, prevV = k, v
	}
	check := uint64(0)
	if t.CheckIndirect {
		check = 1
	}
	b = binary.AppendUvarint(b, check)
	enc := slices.DeleteFunc(sortedKeys(t.Encoded), func(k uint64) bool { return !t.Encoded[k] })
	b = binary.AppendUvarint(b, uint64(len(enc)))
	prevK = 0
	for _, k := range enc {
		b = binary.AppendUvarint(b, k-prevK)
		prevK = k
	}
	return b
}

var errTrailer = errors.New("chbp: malformed address-map trailer")

// tableReader decodes a SecFaultTab payload. The first error sticks and
// empties the input, so every later read returns zero and every later
// count is zero.
type tableReader struct {
	b   []byte
	err error
}

func (r *tableReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *tableReader) u64() uint64 {
	if len(r.b) < 8 {
		r.fail(io.ErrUnexpectedEOF)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *tableReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errTrailer)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count rejects a declared entry count the remaining bytes cannot hold at
// entryBytes bytes per entry, before any map is sized by it: a hostile
// header must not make the parser allocate more than its payload
// describes.
func (r *tableReader) count(n uint64, entryBytes int) int {
	if n > uint64(len(r.b)/entryBytes) {
		r.fail(fmt.Errorf("chbp: table declares %d entries in %d bytes", n, len(r.b)))
		return 0
	}
	return int(n)
}

// next reads a trailer key written as the uvarint delta from prev; keys
// after the first must strictly ascend.
func (r *tableReader) next(prev uint64, i int) uint64 {
	d := r.uvarint()
	if i > 0 && (d == 0 || prev+d < prev) {
		r.fail(errTrailer)
	}
	return prev + d
}

// trailer parses the block Marshal appends for a non-empty AddrMap. An
// AddrMap entry takes at least two bytes, an Encoded one at least one, and
// the block must end the payload.
func (r *tableReader) trailer(t *Tables) {
	n := r.count(r.uvarint(), 2)
	if n == 0 {
		r.fail(errTrailer)
	}
	t.AddrMap = make(map[uint64]uint64, n)
	var k, v uint64
	for i := range n {
		k = r.next(k, i)
		d := r.uvarint()
		v += d>>1 ^ -(d & 1) // zigzag, as binary.Varint decodes it
		t.AddrMap[k] = v
	}
	check := r.uvarint()
	t.CheckIndirect = check == 1
	n = r.count(r.uvarint(), 1)
	t.Encoded = make(map[uint64]bool, n)
	for i, k := 0, uint64(0); i < n; i++ {
		k = r.next(k, i)
		t.Encoded[k] = true
	}
	if check > 1 || len(r.b) != 0 {
		r.fail(errTrailer)
	}
}

// UnmarshalTables parses a SecFaultTab payload.
func UnmarshalTables(data []byte) (*Tables, error) {
	r := &tableReader{b: data}
	t := &Tables{GP: r.u64(), TargetStart: r.u64(), TargetEnd: r.u64()}
	for _, m := range []*map[uint64]uint64{&t.Redirect, &t.Trap, &t.ExitTrap, &t.ExitOf, &t.Spaces, &t.Resolved} {
		n := r.count(r.u64(), 16)
		*m = make(map[uint64]uint64, n)
		for range n {
			k := r.u64()
			(*m)[k] = r.u64()
		}
	}
	if len(r.b) > 0 {
		r.trailer(t)
	}
	if r.err != nil {
		return nil, r.err
	}
	return t, nil
}

// TablesOf extracts the tables embedded in a rewritten image, or nil if the
// image has none (it was not rewritten).
func TablesOf(img *obj.Image) (*Tables, error) {
	sec := img.Section(obj.SecFaultTab)
	if sec == nil {
		return nil, nil
	}
	return UnmarshalTables(sec.Data)
}
