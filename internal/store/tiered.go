package store

import "sync/atomic"

// Tier names, used in stats, metrics labels, and trace annotations.
const (
	TierMemory = "memory"
	TierDisk   = "disk"
)

// Tiered is memory over disk: Get checks memory first, then disk (a disk
// hit is promoted into memory so the next lookup is fast); Put writes
// through to both tiers. The disk tier is optional — with a nil Disk the
// Tiered store is just the memory store with tier accounting, so the
// service mounts one code path either way.
//
// A failed disk write never fails the Put: the entry stays served from
// memory and the failure is counted (it is a durability loss, not a
// correctness loss — the entry is reproducible by rewriting).
type Tiered struct {
	mem  *Memory
	disk *Disk

	memHits, diskHits, misses, diskErrors atomic.Uint64
}

// NewTiered mounts mem over disk (disk may be nil).
func NewTiered(mem *Memory, disk *Disk) *Tiered {
	return &Tiered{mem: mem, disk: disk}
}

// Mem exposes the memory tier (stats, chaos corruption injection).
func (t *Tiered) Mem() *Memory { return t.mem }

// Disk exposes the disk tier (nil when the store is memory-only).
func (t *Tiered) Disk() *Disk { return t.disk }

// Get returns the entry and which tier served it ("" on a miss). A disk
// hit is promoted into the memory tier before returning, so the caller's
// next identical lookup is a memory hit.
func (t *Tiered) Get(key string) (*Entry, string, bool) {
	if e, ok := t.mem.Get(key); ok {
		t.memHits.Add(1)
		return e, TierMemory, true
	}
	if t.disk != nil {
		if e, ok := t.disk.Get(key); ok {
			t.mem.Put(e) // read-promote
			t.diskHits.Add(1)
			return e, TierDisk, true
		}
	}
	t.misses.Add(1)
	return nil, "", false
}

// Put writes through to both tiers. Disk failures are absorbed (counted,
// entry stays memory-resident); only a memory failure — which Memory never
// produces — would surface.
func (t *Tiered) Put(e *Entry) error {
	if err := t.mem.Put(e); err != nil {
		return err
	}
	if t.disk != nil {
		if err := t.disk.Put(e); err != nil {
			t.diskErrors.Add(1)
		}
	}
	return nil
}

// Delete removes key from every tier.
func (t *Tiered) Delete(key string) {
	t.mem.Delete(key)
	if t.disk != nil {
		t.disk.Delete(key)
	}
}

// TieredStats is the combined snapshot: per-tier stores plus the tier-hit
// attribution the combinator itself tracks.
type TieredStats struct {
	Memory Stats  `json:"memory"`
	Disk   *Stats `json:"disk,omitempty"`
	// MemHits/DiskHits/Misses attribute every Tiered.Get: served by
	// memory, served by disk (and promoted), or missed everywhere.
	MemHits  uint64 `json:"mem_tier_hits"`
	DiskHits uint64 `json:"disk_tier_hits"`
	Misses   uint64 `json:"misses"`
	// DiskErrors is write-through Puts the disk tier failed (entry stayed
	// memory-only). Each one is also in Disk.Errors, which additionally
	// counts reads that vanished mid-flight.
	DiskErrors uint64 `json:"disk_errors,omitempty"`
}

// TierStats snapshots the combinator and both tiers.
func (t *Tiered) TierStats() TieredStats {
	out := TieredStats{
		Memory:     t.mem.Stats(),
		MemHits:    t.memHits.Load(),
		DiskHits:   t.diskHits.Load(),
		Misses:     t.misses.Load(),
		DiskErrors: t.diskErrors.Load(),
	}
	if t.disk != nil {
		ds := t.disk.Stats()
		out.Disk = &ds
	}
	return out
}
