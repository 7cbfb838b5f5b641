package store

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkMemoryHitParallel measures concurrent hit throughput on the
// memory tier, whose checksum verification runs outside the mutex so
// parallel hits hash in parallel. Run with -cpu to see it scale.
func BenchmarkMemoryHitParallel(b *testing.B) {
	const (
		nKeys   = 16
		payload = 256 << 10 // 256 KiB, a mid-sized rewritten image
	)
	// The sub-benchmark name keeps BENCH_emu.json's history comparable.
	b.Run("verify_unlocked", func(b *testing.B) {
		m := NewMemory(1<<30, Counters{})
		keys := make([]string, nKeys)
		for i := range keys {
			keys[i] = fmt.Sprintf("m=chbp;img=%04d", i)
			m.Put(testEntry(keys[i], payload, int64(i)))
		}
		var next atomic.Uint64
		b.SetBytes(payload)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				k := keys[next.Add(1)%nKeys]
				if _, ok := m.Get(k); !ok {
					b.Fatal("benchmark key missing")
				}
			}
		})
	})
}

// BenchmarkDiskStoreHit measures single-entry disk-tier hit latency: read,
// decode, verify. This is the cost of serving a warm-restart hit before the
// entry gets promoted to memory.
func BenchmarkDiskStoreHit(b *testing.B) {
	d, err := OpenDisk(b.TempDir(), 1<<30, Counters{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	const payload = 256 << 10
	e := testEntry("m=chbp;img=bench", payload, 1)
	if err := d.Put(e); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Get("m=chbp;img=bench"); !ok {
			b.Fatal("disk entry missing")
		}
	}
}
