package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{seq(10), 0.5, 5},
		{seq(10), 0.9, 9},
		{seq(100), 0.9, 90},
		{seq(101), 0.9, 91}, // rank ceil(90.9) = 91
		{seq(1), 0.5, 1},
		{nil, 0.5, 0},
	} {
		if got := percentile(c.xs, c.q); got != c.want {
			t.Errorf("percentile(n=%d, %v) = %v, want %v", len(c.xs), c.q, got, c.want)
		}
	}
}

func TestSummarizeOmitsP90BelowMinSamples(t *testing.T) {
	s := summarize(seq(minTailSamples - 1))
	if s.HasP90 || s.N != minTailSamples-1 {
		t.Fatalf("%d samples: %+v, want no p90", minTailSamples-1, s)
	}
	s = summarize(seq(minTailSamples))
	if !s.HasP90 || s.P90 != 90 || s.P50 != 50 {
		t.Fatalf("%d samples: %+v, want p50 50 and p90 90", minTailSamples, s)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(2, 8) = %v, want 4", g)
	}
	if g := geomean([]float64{1.5}); math.Abs(g-1.5) > 1e-12 {
		t.Fatalf("geomean(1.5) = %v", g)
	}
}

func TestTallyCountsDegradedAnswersAndErrors(t *testing.T) {
	cfg := rewriteConfig{method: "chbp"}
	degraded := checkRewrite(&rewriteAnswer{Method: "chbp", Degraded: true, DegradedReason: "quarantined", Image: []byte{1}}, cfg, false)
	if degraded == nil {
		t.Fatal("a degraded answer passed the check")
	}
	outs := []outcome{
		{latency: 2 * time.Millisecond},
		{latency: 4 * time.Millisecond},
		{latency: time.Millisecond, err: degraded},
		{latency: time.Millisecond, err: errors.New("status 500")},
	}
	attempted, failed, ok := tally(outs)
	if attempted != 4 || failed != 2 || len(ok) != 2 || ok[0] != 2 || ok[1] != 4 {
		t.Fatalf("tally = %d attempted, %d failed, ok %v", attempted, failed, ok)
	}
	if f := failFrac(attempted, failed); f != 0.5 {
		t.Fatalf("failFrac = %v, want 0.5", f)
	}
}

func TestStreamsAreSeeded(t *testing.T) {
	for name, mk := range map[string]func(seed int64) stream{
		"cycle": func(seed int64) stream { return cycleStream(seed, 48, 1000) },
		"zipf":  func(seed int64) stream { return zipfStream(seed, 48, warmZipfS, 1000) },
	} {
		a, b, c := mk(7).digest(), mk(7).digest(), mk(8).digest()
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 share digest %s", name, a)
		}
	}
}

func TestZipfStreamDealsExactSharesPerBlock(t *testing.T) {
	want := zipfCounts(48, warmZipfS, zipfBlock)
	total := 0
	for k, c := range want {
		total += c
		if k > 0 && c > want[k-1] {
			t.Fatalf("rank %d gets %d requests, more than rank %d's %d", k, c, k-1, want[k-1])
		}
	}
	if total != zipfBlock || want[47] < 1 {
		t.Fatalf("counts %v sum to %d, want %d with every item present", want, total, zipfBlock)
	}
	s := zipfStream(5, 48, warmZipfS, 3*zipfBlock)
	for blk := 0; blk < 3; blk++ {
		got := make([]int, 48)
		for _, v := range s[blk*zipfBlock : (blk+1)*zipfBlock] {
			got[v]++
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("block %d: item %d served %d times, want %d", blk, k, got[k], want[k])
			}
		}
	}
}

func TestCycleStreamVisitsEveryItemPerBlock(t *testing.T) {
	s := cycleStream(3, 24, 24*5)
	for blk := 0; blk < 5; blk++ {
		seen := make(map[int]bool)
		for _, v := range s[blk*24 : (blk+1)*24] {
			seen[v] = true
		}
		if len(seen) != 24 {
			t.Fatalf("block %d visits %d of 24 items", blk, len(seen))
		}
	}
}
