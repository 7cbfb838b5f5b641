package instrument

import (
	"math/rand"
	"testing"
)

func TestCoverageEdgeHashing(t *testing.T) {
	c := NewCoverage()
	c.Edge(0x1234)
	c.Edge(0x5678)
	forward := c.Edges()
	if forward != 2 {
		t.Fatalf("two distinct edges expected, got %d", forward)
	}

	// A→B and B→A must land in different cells (prev is shifted).
	c2 := NewCoverage()
	c2.Edge(0x5678)
	c2.Edge(0x1234)
	same := 0
	for i := range c.Map {
		if c.Map[i] != 0 && c2.Map[i] != 0 {
			same++
		}
	}
	if same == 2 {
		t.Fatal("A→B and B→A hashed to the same cells")
	}
}

func TestCoverageSaturates(t *testing.T) {
	c := NewCoverage()
	for i := 0; i < 300; i++ {
		c.Edge(7)
		c.prev = 0 // same edge every time
	}
	if got := c.Map[7]; got != 255 {
		t.Fatalf("count should saturate at 255, got %d", got)
	}
}

func TestCoverageResetNoAlloc(t *testing.T) {
	c := NewCoverage()
	c.Edge(1)
	c.Edge(2)
	allocs := testing.AllocsPerRun(10, func() { c.Reset() })
	if allocs != 0 {
		t.Fatalf("Coverage.Reset allocates: %v allocs/op", allocs)
	}
	if c.Edges() != 0 || c.prev != 0 {
		t.Fatal("Reset did not clear state")
	}
}

// TestCoverageTouchedMatchesMap: after random Edge sequences — narrow id
// ranges so cells collide and saturate, wide ones so they scatter —
// Touched lists every nonzero cell exactly once, and Reset, which clears
// only the listed cells, leaves the whole bitmap zero.
func TestCoverageTouchedMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewCoverage()
	for round := 0; round < 50; round++ {
		span := []int{4, 300, 1 << 20}[round%3]
		for i := rng.Intn(20_000); i > 0; i-- {
			c.Edge(uint32(rng.Intn(span)))
		}
		seen := make(map[uint16]bool)
		for _, i := range c.Touched() {
			if seen[i] {
				t.Fatalf("round %d: cell %d listed twice", round, i)
			}
			seen[i] = true
			if c.Map[i] == 0 {
				t.Fatalf("round %d: listed cell %d is zero", round, i)
			}
		}
		nonzero := 0
		for i, v := range c.Map {
			if v != 0 {
				nonzero++
				if !seen[uint16(i)] {
					t.Fatalf("round %d: nonzero cell %d not listed", round, i)
				}
			}
		}
		if nonzero != c.Edges() {
			t.Fatalf("round %d: Edges() = %d, %d nonzero cells", round, c.Edges(), nonzero)
		}
		c.Reset()
		if c.Map != [CovMapSize]byte{} || len(c.Touched()) != 0 || c.prev != 0 {
			t.Fatalf("round %d: Reset left coverage state behind", round)
		}
	}
}

func TestCmpLogRing(t *testing.T) {
	l := NewCmpLog()
	for i := 0; i < CmpLogSize+10; i++ {
		l.Log(uint64(i), uint64(i)*2, uint64(i)*3)
	}
	if l.Len() != CmpLogSize {
		t.Fatalf("Len = %d, want %d", l.Len(), CmpLogSize)
	}
	// Oldest readable entry is entry 10 (the first 10 were overwritten).
	if got := l.Entry(0); got.PC != 10 {
		t.Fatalf("oldest entry PC = %d, want 10", got.PC)
	}
	if got := l.Entry(l.Len() - 1); got.PC != CmpLogSize+9 {
		t.Fatalf("newest entry PC = %d, want %d", got.PC, CmpLogSize+9)
	}
	l.Reset()
	if l.Len() != 0 {
		t.Fatal("Reset did not clear log")
	}
}

func TestMemTraceRing(t *testing.T) {
	m := NewMemTrace()
	m.Access(0x100, 0x2000, 8, false)
	m.Access(0x104, 0x2008, 4, true)
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	e := m.Entry(1)
	if e.PC != 0x104 || e.Addr != 0x2008 || e.Size != 4 || !e.Write {
		t.Fatalf("unexpected entry: %+v", e)
	}
	allocs := testing.AllocsPerRun(10, func() { m.Reset() })
	if allocs != 0 {
		t.Fatalf("MemTrace.Reset allocates: %v allocs/op", allocs)
	}
}

func TestHooksResetState(t *testing.T) {
	var nilHooks *Hooks
	nilHooks.ResetState() // must not panic

	h := &Hooks{Cov: NewCoverage(), Cmp: NewCmpLog(), Mem: NewMemTrace(), Prof: NewProfile()}
	h.IndirectCalls = 42
	h.Cov.Edge(1)
	h.Cmp.Log(1, 2, 3)
	h.Mem.Access(1, 2, 8, false)
	h.Prof.Add(1, 1, 2, 3)
	allocs := testing.AllocsPerRun(10, func() { h.ResetState() })
	if allocs != 0 {
		t.Fatalf("Hooks.ResetState allocates: %v allocs/op", allocs)
	}
	if h.Cov.Edges() != 0 || h.Cmp.Len() != 0 || h.Mem.Len() != 0 || h.Prof.Blocks() != 0 {
		t.Fatal("ResetState did not clear observer state")
	}
	if h.IndirectCalls != 42 {
		t.Fatal("ResetState must not touch the cumulative IndirectCalls counter")
	}
}

func TestObserving(t *testing.T) {
	var nilHooks *Hooks
	if nilHooks.Observing() {
		t.Fatal("nil hooks observing")
	}
	h := &Hooks{Indirect: func(pc, t uint64) (uint64, uint64) { return t, 0 }}
	if h.Observing() {
		t.Fatal("indirect-only hooks are not observers")
	}
	h.Cov = NewCoverage()
	if !h.Observing() {
		t.Fatal("coverage installed but not observing")
	}
	h.Cov = nil
	h.Prof = NewProfile()
	if !h.Observing() {
		t.Fatal("profile installed but not observing")
	}
}

func TestProfileSamplesAndTotals(t *testing.T) {
	p := NewProfile()
	// Hot block at 0x100: 10 dispatches of 8 instructions, 2 cycles each.
	for i := 0; i < 10; i++ {
		p.Add(0x100, 1, 8, 16)
	}
	p.Add(0x200, 1, 4, 4)
	p.Add(0x300, 1, 2, 2)

	if p.Blocks() != 3 {
		t.Fatalf("blocks = %d, want 3", p.Blocks())
	}
	cycles, instret := p.Totals()
	if cycles != 166 || instret != 86 {
		t.Errorf("totals = (%d, %d), want (166, 86)", cycles, instret)
	}
	top := p.Samples()
	if len(top) != 3 || top[0].PC != 0x100 || top[1].PC != 0x200 {
		t.Fatalf("samples = %+v", top)
	}
	if top[0].Cycles != 160 || top[0].Instret != 80 || top[0].Dispatches != 10 {
		t.Errorf("hot block = %+v", top[0])
	}
	// Ties break by pc ascending.
	q := NewProfile()
	q.Add(0x20, 1, 1, 5)
	q.Add(0x10, 1, 1, 5)
	if s := q.Samples(); s[0].PC != 0x10 || s[1].PC != 0x20 {
		t.Errorf("tie order = %+v", s)
	}
}

func TestProfileMerge(t *testing.T) {
	a := NewProfile()
	a.Add(0x100, 1, 2, 4)
	b := NewProfile()
	b.Add(0x100, 1, 3, 6)
	b.Add(0x200, 1, 1, 1)
	a.Merge(b)
	a.Merge(nil)
	cycles, instret := a.Totals()
	if cycles != 11 || instret != 6 {
		t.Errorf("merged totals = (%d, %d), want (11, 6)", cycles, instret)
	}
	if a.Blocks() != 2 {
		t.Errorf("merged blocks = %d, want 2", a.Blocks())
	}
	if hot := a.Samples()[0]; hot.PC != 0x100 || hot.Dispatches != 2 {
		t.Errorf("merged hot = %+v", hot)
	}
}

// TestProfileSpillConservesTotals fills the table past ProfileBlocks
// distinct blocks: later blocks fold into the spill sample, totals stay
// exact (also through Merge), and Reset empties everything without
// allocating.
func TestProfileSpillConservesTotals(t *testing.T) {
	const extra = 100
	p := NewProfile()
	var wantCycles, wantInstret uint64
	for i := uint64(0); i < ProfileBlocks+extra; i++ {
		pc := 0x10000 + 4*i
		p.Add(pc, 1, 3, 5+i)
		p.Add(pc, 1, 1, 1)
		wantCycles += 6 + i
		wantInstret += 4
	}
	if cycles, instret := p.Totals(); cycles != wantCycles || instret != wantInstret {
		t.Fatalf("totals = (%d, %d), want (%d, %d)", cycles, instret, wantCycles, wantInstret)
	}
	if p.Blocks() != ProfileBlocks+1 {
		t.Fatalf("blocks = %d, want %d slots plus the spill", p.Blocks(), ProfileBlocks+1)
	}
	var spill *BlockSample
	var sum uint64
	for _, s := range p.Samples() {
		sum += s.Cycles
		if s.PC == SpillPC {
			s := s
			spill = &s
		}
	}
	if sum != wantCycles {
		t.Errorf("sum over samples = %d, want %d", sum, wantCycles)
	}
	if spill == nil || spill.Dispatches != 2*extra || spill.Instret != 4*extra {
		t.Errorf("spill sample = %+v, want %d dispatches", spill, 2*extra)
	}

	m := NewProfile()
	m.Merge(p)
	m.Merge(p)
	if cycles, instret := m.Totals(); cycles != 2*wantCycles || instret != 2*wantInstret {
		t.Errorf("merged totals = (%d, %d), want (%d, %d)", cycles, instret, 2*wantCycles, 2*wantInstret)
	}

	if allocs := testing.AllocsPerRun(10, func() {
		p.Reset()
		p.Add(0x10000, 1, 1, 1)
	}); allocs != 0 {
		t.Fatalf("Profile.Reset+Sample allocates: %v allocs/op", allocs)
	}
	p.Reset()
	if cycles, instret := p.Totals(); cycles != 0 || instret != 0 || p.Blocks() != 0 {
		t.Fatalf("Reset left (%d, %d) over %d blocks", cycles, instret, p.Blocks())
	}
}
