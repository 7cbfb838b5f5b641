// Package store is Chimera's content-addressed result store: the layer that
// keeps a completed rewrite so identical requests are answered again. The
// rewrite pipeline is deterministic and keyed by content address (image
// SHA-256 plus canonicalized options), so a stored entry stays valid for
// as long as its bytes still match the checksum taken at insertion time.
//
// The package provides one store over one checksummed Entry: Memory, the
// in-memory LRU under a byte budget (extracted from the service's original
// rewrite cache), with SHA-256 re-verification of every hit performed
// OUTSIDE the lock so parallel hits scale.
//
// An entry is its key and data bytes, which the checksum covers, plus an
// in-process Value (the service keeps a rewrite's stats there) that never
// leaves the process and so is neither encoded nor checksummed.
//
// The invariant the store upholds: a Get either returns the exact bytes
// Put stored, or a miss. Corruption is always converted into a miss plus
// an eviction, never into a wrong entry. The store counts its own events
// in atomics that back its Stats; nothing else holds a copy of those
// counts.
package store

import (
	"crypto/sha256"
	"encoding/binary"

	"github.com/eurosys26p57/chimera/internal/telemetry"
)

// Entry is one stored rewrite result: the payload bytes (the rewritten
// image in the obj wire format) plus an in-process Value (the service keeps
// its per-rewrite stats there). Key is the content address. Value is
// neither checksummed nor counted in the byte budget. Data and Value must
// be treated as read-only once handed to a store — they may be shared with
// concurrent readers.
type Entry struct {
	Key   string
	Value any
	Data  []byte
}

// Sum is the entry's integrity checksum: SHA-256 over the length-framed
// key and data. Every store verifies it on the read path.
func (e *Entry) Sum() [sha256.Size]byte {
	h := sha256.New()
	var frame [8]byte
	for _, part := range [][]byte{[]byte(e.Key), e.Data} {
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
	return int64(len(e.Key)) + int64(len(e.Data))
}

// Stats is a point-in-time snapshot of one store's counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// CorruptEvictions is entries that failed checksum verification on a
	// read and were evicted (reported as a miss instead of served).
	CorruptEvictions uint64 `json:"corrupt_evictions"`
	Entries          int    `json:"entries"`
	Bytes            int64  `json:"bytes"`
	Budget           int64  `json:"budget_bytes"`
}

// Counters are optional telemetry instruments a store records into; the
// zero Counters means "no telemetry" (telemetry's nil instruments record
// nothing). Event counts are not among them: those live in the store's own
// Stats, which /metrics samples at scrape time.
type Counters struct {
	// Verify, when set, observes checksum-verification latency in seconds.
	Verify *telemetry.Histogram
}

// TieredStats is the lookup tally the repo benchmark reads from
// service.Stats().Store: MemHits and Misses are the memory store's Hits
// and Misses, and DiskHits is always 0. It is deleted with the next change
// to benchmark/, which can read the cache counters instead.
type TieredStats struct {
	MemHits  uint64
	DiskHits uint64
	Misses   uint64
}
