package store

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkMemoryHitParallel measures concurrent hit throughput on the
// memory store, whose checksum verification runs outside the mutex so
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
