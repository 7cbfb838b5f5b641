package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"
)

// minTailSamples is the sample count below which p90 is not reported: at
// least ten samples must lie beyond the percentile for it to mean anything.
const minTailSamples = 100

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q·n samples at or below it (0 for no
// samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// latencySummary is the timing part of an end-to-end report.
type latencySummary struct {
	N      int
	P50    float64
	P90    float64
	HasP90 bool
}

// summarize reduces per-op latencies in milliseconds. P90 is present only
// with at least minTailSamples samples.
func summarize(ms []float64) latencySummary {
	s := latencySummary{N: len(ms), P50: percentile(ms, 0.50)}
	if len(ms) >= minTailSamples {
		s.P90, s.HasP90 = percentile(ms, 0.90), true
	}
	return s
}

// geomean is the geometric mean of positive ratios.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// median of xs (nearest rank).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// outcome is one completed op: its latency and whether its answer failed a
// check. A request that errors, returns a wrong answer or a degraded
// rewrite counts as failed.
type outcome struct {
	latency time.Duration
	err     error
}

// tally counts attempts and failures over outcomes and returns the
// latencies of the successful ones in milliseconds.
func tally(outs []outcome) (attempted, failed int, okMS []float64) {
	for _, o := range outs {
		attempted++
		if o.err != nil {
			failed++
			continue
		}
		okMS = append(okMS, float64(o.latency)/float64(time.Millisecond))
	}
	return attempted, failed, okMS
}

// failFrac is failed/attempted (0 with no attempts).
func failFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// stream is a seeded request stream: element i names the pool item the
// i-th request uses. Streams are pure functions of the seed, so both sides
// of a comparison send the same requests in the same order. They are built
// before the timed window and only read during it.
type stream []int

// cycleStream visits a pool of n items in blocks of n; each block is its own
// seeded permutation. Any prefix therefore holds every item within one
// block's worth of the same count, which keeps the request mix — and so
// the latency distribution — the same at any run length.
func cycleStream(seed int64, n, length int) stream {
	rng := rand.New(rand.NewSource(seed))
	out := make(stream, 0, length+n)
	for len(out) < length {
		out = append(out, rng.Perm(n)...)
	}
	return out[:length]
}

// zipfBlock is how many requests a zipfStream block deals.
const zipfBlock = 1024

// zipfStream serves pool items in Zipf(s) proportions, item k having
// popularity rank k (weight (k+1)^-s). It deals blocks of zipfBlock
// requests in which every item appears exactly its share of times, each
// block in its own seeded order. Drawing each request at random instead
// would let sampling noise move a heavy item's share by a percent from run
// to run, and so move the tail percentiles whenever one sits near the edge
// between two items' latencies. The ranking is fixed rather than seeded:
// with s = 1.1 the hottest few items carry most requests, so a seeded
// ranking would let the seed choose the typical request size.
func zipfStream(seed int64, n int, s float64, length int) stream {
	var block []int
	for k, c := range zipfCounts(n, s, zipfBlock) {
		for ; c > 0; c-- {
			block = append(block, k)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make(stream, 0, length+len(block))
	for len(out) < length {
		for _, j := range rng.Perm(len(block)) {
			out = append(out, block[j])
		}
	}
	return out[:length]
}

// zipfCounts splits total requests over n items in Zipf(s) proportions,
// rounding by largest remainder so the counts sum to total.
func zipfCounts(n int, s float64, total int) []int {
	w := make([]float64, n)
	var sum float64
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
		sum += w[k]
	}
	counts := make([]int, n)
	rest := make([]int, n)
	left := total
	for k := range w {
		exact := float64(total) * w[k] / sum
		counts[k] = int(exact)
		left -= counts[k]
		w[k] = exact - float64(counts[k])
		rest[k] = k
	}
	sort.SliceStable(rest, func(a, b int) bool { return w[rest[a]] > w[rest[b]] })
	for _, k := range rest[:left] {
		counts[k]++
	}
	return counts
}

// at returns the item of request i, wrapping past the end.
func (s stream) at(i int) int { return s[i%len(s)] }

// digest hashes the stream.
func (s stream) digest() string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range s {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
