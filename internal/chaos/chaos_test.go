package chaos

import (
	"context"
	"testing"
	"time"
)

// TestDeterminism: two injectors with the same seed and config make the
// same decision sequence; a different seed diverges.
func TestDeterminism(t *testing.T) {
	cfg := Config{Rates: map[Kind]float64{RewritePanic: 0.3, CacheCorrupt: 0.7}}
	a, b := New(42, cfg), New(42, cfg)
	for i := 0; i < 10_000; i++ {
		k := RewritePanic
		if i%2 == 0 {
			k = CacheCorrupt
		}
		if a.Roll(k) != b.Roll(k) {
			t.Fatalf("decision %d diverged between same-seed injectors", i)
		}
	}
	if a.TotalFired() != b.TotalFired() {
		t.Fatalf("fired totals diverged: %d vs %d", a.TotalFired(), b.TotalFired())
	}
	if a.TotalFired() == 0 {
		t.Fatal("nothing fired at rates 0.3/0.7 over 10k rolls")
	}

	c := New(43, cfg)
	same := true
	for i := 0; i < 1000; i++ {
		if a.Roll(RewritePanic) != c.Roll(RewritePanic) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical decision sequences")
	}
}

// TestNilInjector: every method on a nil injector is a safe no-op.
func TestNilInjector(t *testing.T) {
	var in *Injector
	for _, k := range Kinds() {
		if in.Roll(k) {
			t.Fatalf("nil injector fired %v", k)
		}
		if in.Fired(k) != 0 || in.Rolled(k) != 0 {
			t.Fatalf("nil injector counted %v", k)
		}
	}
	if in.Counts() != nil {
		t.Error("nil injector Counts != nil")
	}
	if in.TotalFired() != 0 || in.Seed() != 0 || in.Intn(8) != 0 {
		t.Error("nil injector leaked state")
	}
}

// TestRatesAndCounts: a rate-0 kind never fires, a rate-1 kind always
// fires, counts account for exactly the fired decisions, and rolls count
// every decision of a kind with a rate, fired or not.
func TestRatesAndCounts(t *testing.T) {
	in := New(7, Config{Rates: map[Kind]float64{
		RewritePanic:  1.0,
		SpuriousFault: 0.0,
	}})
	for i := 0; i < 100; i++ {
		if !in.Roll(RewritePanic) {
			t.Fatal("rate-1 kind did not fire")
		}
		if in.Roll(SpuriousFault) {
			t.Fatal("rate-0 kind fired")
		}
		if in.Roll(EmuLoop) { // unset rate defaults to 0
			t.Fatal("unset kind fired")
		}
	}
	if got := in.Fired(RewritePanic); got != 100 {
		t.Errorf("fired(RewritePanic) = %d, want 100", got)
	}
	counts := in.Counts()
	if counts["rewrite_panic"] != 100 || counts["spurious_fault"] != 0 {
		t.Errorf("counts = %v", counts)
	}
	if in.TotalFired() != 100 {
		t.Errorf("total = %d, want 100", in.TotalFired())
	}
	if got := in.Rolled(RewritePanic); got != 100 {
		t.Errorf("rolled(RewritePanic) = %d, want 100", got)
	}
	if got := in.Rolled(SpuriousFault) + in.Rolled(EmuLoop); got != 0 {
		t.Errorf("rate-0 kinds rolled %d times, want 0", got)
	}
	half := New(7, Config{Rates: map[Kind]float64{CacheCorrupt: 0.5}})
	for i := 0; i < 1000; i++ {
		half.Roll(CacheCorrupt)
	}
	if r, f := half.Rolled(CacheCorrupt), half.Fired(CacheCorrupt); r != 1000 || f == 0 || f == r {
		t.Errorf("rate 0.5 over 1000 rolls: rolled %d, fired %d", r, f)
	}
}

// TestStallHonorsContext: a stall ends early when its context does.
func TestStallHonorsContext(t *testing.T) {
	in := New(1, Config{Stall: 10 * time.Second, Rates: nil})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := in.Stall(ctx)
	if err == nil {
		t.Fatal("stall returned nil despite expired context")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stall ignored context, blocked %v", elapsed)
	}

	// And completes normally when the context outlives the stall.
	in2 := New(1, Config{Stall: time.Millisecond})
	if err := in2.Stall(context.Background()); err != nil {
		t.Fatalf("unexpired stall returned %v", err)
	}
}

// TestConcurrentRolls: concurrent rolling races cleanly (run under -race)
// and loses no counts.
func TestConcurrentRolls(t *testing.T) {
	in := New(99, Config{Rates: map[Kind]float64{CacheCorrupt: 1.0}})
	done := make(chan struct{})
	const goroutines, per = 8, 500
	for g := 0; g < goroutines; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				in.Roll(CacheCorrupt)
			}
		}()
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	if got := in.Fired(CacheCorrupt); got != goroutines*per {
		t.Errorf("lost counts: %d fired, want %d", got, goroutines*per)
	}
	if got := in.Rolled(CacheCorrupt); got != goroutines*per {
		t.Errorf("lost rolls: %d rolled, want %d", got, goroutines*per)
	}
}
