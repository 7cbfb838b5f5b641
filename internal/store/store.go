// Package store is Chimera's content-addressed result store: the layer that
// makes a completed rewrite durable and shareable. The rewrite pipeline is
// deterministic and keyed by content address (image SHA-256 plus
// canonicalized options), so a stored entry is valid anywhere — in this
// process or on this machine across restarts — as long as its bytes still
// match the checksum taken at insertion time.
//
// The package provides three stores over one checksummed Entry:
//
//   - Memory: the in-memory LRU under a byte budget (extracted from the
//     service's original rewrite cache), with SHA-256 re-verification of
//     every hit performed OUTSIDE the lock so parallel hits scale.
//   - Disk: a persistent content-addressed store (sharded fanout
//     directories, atomic tmp+rename writes, crash-safe recovery scan,
//     checksum re-verification on every read, LRU eviction under a byte
//     budget) so warm state survives restarts and scales past RAM.
//   - Tiered: memory over disk — write-through on Put, read-promote on a
//     disk hit — the shape the service mounts.
//
// The invariant every store upholds: a Get either returns the exact bytes
// Put stored, or a miss. Corruption (bit rot, torn writes, bit flips)
// is always converted into a miss plus an eviction, never into a wrong
// entry. Each store counts its own events in atomics that back its Stats;
// nothing else holds a copy of those counts.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/eurosys26p57/chimera/internal/telemetry"
)

// Entry is one stored rewrite result: the payload bytes (the rewritten
// image in the obj wire format) plus a small opaque metadata sidecar (the
// service serializes its per-rewrite stats there). Key is the content
// address. Data and Meta must be treated as read-only once handed to a
// store — they may be shared with concurrent readers.
type Entry struct {
	Key  string
	Meta []byte
	Data []byte
}

// Sum is the entry's integrity checksum: SHA-256 over the length-framed
// key, meta, and data. Every store verifies it on the read path.
func (e *Entry) Sum() [sha256.Size]byte {
	h := sha256.New()
	var frame [8]byte
	for _, part := range [][]byte{[]byte(e.Key), e.Meta, e.Data} {
		binary.LittleEndian.PutUint64(frame[:], uint64(len(part)))
		h.Write(frame[:])
		h.Write(part)
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// size is the entry's accounting footprint in bytes.
func (e *Entry) size() int64 {
	return int64(len(e.Key)) + int64(len(e.Meta)) + int64(len(e.Data))
}

// Stats is a point-in-time snapshot of one store's counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// CorruptEvictions is entries that failed checksum verification on a
	// read and were evicted (reported as a miss instead of served).
	CorruptEvictions uint64 `json:"corrupt_evictions"`
	// Errors is I/O failures absorbed (disk writes that failed, reads that
	// vanished mid-flight); always zero for the memory store.
	Errors  uint64 `json:"errors,omitempty"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
	Budget  int64  `json:"budget_bytes"`
}

// Counters are optional telemetry instruments a store records into; the
// zero Counters means "no telemetry" (telemetry's nil instruments record
// nothing). Event counts are not among them: those live in the store's own
// Stats, which /metrics samples at scrape time.
type Counters struct {
	// Verify, when set, observes checksum-verification latency in seconds.
	Verify *telemetry.Histogram
}

// --- Wire/disk codec ------------------------------------------------------

// entryMagic heads every encoded entry; a version bump changes the last
// byte so old files are discarded by the recovery scan, not misparsed.
var entryMagic = [8]byte{'C', 'H', 'S', 'T', 'O', 'R', '0', '1'}

// Codec limits: hostile or torn inputs must not drive allocations.
const (
	maxKeyLen  = 4 << 10
	maxMetaLen = 1 << 20
	maxDataLen = 1 << 30

	headerLen = 8 + 4 + 4 + 8 + sha256.Size // magic, keyLen, metaLen, dataLen, sum
)

// ErrCorrupt marks an encoded entry that failed structural validation or
// checksum verification.
var ErrCorrupt = errors.New("store: corrupt entry")

// encodeEntry renders the entry in the store wire format — the bytes the
// disk store persists:
//
//	magic[8] | keyLen u32 | metaLen u32 | dataLen u64 | sum[32] | key | meta | data
//
// all integers little-endian, sum = Entry.Sum over the three parts.
func encodeEntry(e *Entry) []byte {
	sum := e.Sum()
	buf := make([]byte, headerLen+int(e.size()))
	copy(buf, entryMagic[:])
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(e.Key)))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(e.Meta)))
	binary.LittleEndian.PutUint64(buf[16:], uint64(len(e.Data)))
	copy(buf[24:], sum[:])
	off := headerLen
	off += copy(buf[off:], e.Key)
	off += copy(buf[off:], e.Meta)
	copy(buf[off:], e.Data)
	return buf
}

// decodeEntry parses and VERIFIES an encoded entry: structural bounds
// first, then the embedded SHA-256 over key, meta, and data. Any failure —
// truncation, a flipped bit anywhere, hostile lengths — returns ErrCorrupt;
// a decoded entry is exactly what encodeEntry was given. The returned
// entry aliases b's memory; callers that reuse b must copy first.
func decodeEntry(b []byte) (*Entry, error) {
	hdr, err := parseHeader(b)
	if err != nil {
		return nil, err
	}
	if int64(len(b)) != hdr.fileSize() {
		return nil, fmt.Errorf("%w: length %d, header wants %d", ErrCorrupt, len(b), hdr.fileSize())
	}
	off := int64(headerLen)
	e := &Entry{
		Key:  string(b[off : off+hdr.keyLen]),
		Meta: b[off+hdr.keyLen : off+hdr.keyLen+hdr.metaLen],
		Data: b[off+hdr.keyLen+hdr.metaLen:],
	}
	if len(e.Meta) == 0 {
		e.Meta = nil
	}
	if e.Sum() != hdr.sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return e, nil
}

// entryHeader is the parsed fixed-size prefix of an encoded entry.
type entryHeader struct {
	keyLen, metaLen, dataLen int64
	sum                      [sha256.Size]byte
}

func (h entryHeader) fileSize() int64 {
	return headerLen + h.keyLen + h.metaLen + h.dataLen
}

// parseHeader validates the magic and length bounds of an encoded entry's
// prefix (at least headerLen bytes).
func parseHeader(b []byte) (entryHeader, error) {
	var h entryHeader
	if len(b) < headerLen {
		return h, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(b))
	}
	if [8]byte(b[:8]) != entryMagic {
		return h, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	h.keyLen = int64(binary.LittleEndian.Uint32(b[8:]))
	h.metaLen = int64(binary.LittleEndian.Uint32(b[12:]))
	h.dataLen = int64(binary.LittleEndian.Uint64(b[16:]))
	copy(h.sum[:], b[24:])
	if h.keyLen == 0 || h.keyLen > maxKeyLen || h.metaLen > maxMetaLen || h.dataLen > maxDataLen {
		return h, fmt.Errorf("%w: implausible lengths key=%d meta=%d data=%d",
			ErrCorrupt, h.keyLen, h.metaLen, h.dataLen)
	}
	return h, nil
}
