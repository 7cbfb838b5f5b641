package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func testEntry(key string, size int, seed int64) *Entry {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, size)
	rng.Read(data)
	return &Entry{Key: key, Value: "chbp", Data: data}
}

func entriesEqual(a, b *Entry) bool {
	return a.Key == b.Key && a.Value == b.Value && bytes.Equal(a.Data, b.Data)
}

// TestMemoryLRU checks budget enforcement, recency order, the
// bigger-than-budget exception, and stats accounting.
func TestMemoryLRU(t *testing.T) {
	m := NewMemory(3000, Counters{})
	for i := 0; i < 3; i++ {
		m.Put(testEntry(fmt.Sprintf("k%d", i), 900, int64(i)))
	}
	if m.Len() != 3 {
		t.Fatalf("len %d, want 3", m.Len())
	}
	// Touch k0 so k1 is the LRU, then push it out.
	if _, ok := m.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	m.Put(testEntry("k3", 900, 3))
	if _, ok := m.Get("k1"); ok {
		t.Fatal("k1 survived eviction despite being LRU")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := m.Get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	// An entry larger than the whole budget is kept alone.
	big := testEntry("big", 10_000, 9)
	m.Put(big)
	if got, ok := m.Get("big"); !ok || !entriesEqual(got, big) {
		t.Fatal("over-budget entry was not kept")
	}
	if m.Len() != 1 {
		t.Fatalf("len %d after over-budget insert, want 1", m.Len())
	}
	st := m.Stats()
	if st.Evictions == 0 || st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("stats not accounted: %+v", st)
	}
}

// TestMemoryCorruptionEvicted: a corrupted entry fails verification on the
// next Get (hashed OUTSIDE the lock), is evicted with an identity
// re-check, and never reaches the caller.
func TestMemoryCorruptionEvicted(t *testing.T) {
	m := NewMemory(1<<20, Counters{})
	e := testEntry("k", 4096, 1)
	m.Put(e)
	pick := func(n int) int { return n / 2 }
	if !m.Corrupt("k", pick) {
		t.Fatal("corrupt found no entry")
	}
	if _, ok := m.Get("k"); ok {
		t.Fatal("corrupted entry served")
	}
	if m.Len() != 0 {
		t.Fatal("corrupted entry not evicted")
	}
	if st := m.Stats(); st.CorruptEvictions != 1 {
		t.Fatalf("corrupt evictions %d, want 1", st.CorruptEvictions)
	}
	// The original slice handed to Put was never mutated (in-flight
	// responses sharing it stay valid).
	if !entriesEqual(e, testEntry("k", 4096, 1)) {
		t.Fatal("corruption mutated the shared entry bytes")
	}
}

// TestMemoryCorruptionCountedOnce: concurrent readers of one corrupted
// entry each get a miss, but the corruption is counted once, by the reader
// that evicts it.
func TestMemoryCorruptionCountedOnce(t *testing.T) {
	const readers, rounds = 4, 50
	for round := 0; round < rounds; round++ {
		m := NewMemory(1<<20, Counters{})
		m.Put(testEntry("k", 64<<10, 1))
		m.Corrupt("k", func(n int) int { return n / 2 })
		var start, wg sync.WaitGroup
		start.Add(1)
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				if _, ok := m.Get("k"); ok {
					t.Error("corrupted entry served")
				}
			}()
		}
		start.Done()
		wg.Wait()
		st := m.Stats()
		if st.CorruptEvictions != 1 || st.Misses != readers || m.Len() != 0 {
			t.Fatalf("round %d: corrupt evictions %d, misses %d, len %d; want 1, %d, 0",
				round, st.CorruptEvictions, st.Misses, m.Len(), readers)
		}
	}
}
