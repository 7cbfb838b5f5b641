package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// Campaign shape. Campaigns run fuzzSizes different exec counts,
// log-spaced over [fuzzMinExecs, fuzzMaxExecs], each equally often in
// seeded order. An exec costs ~0.1 ms of one core, so a 20 s run
// completes several hundred campaigns and p90 is defined; the planted crash
// falls within the first 50 executions. The 8x spread of sizes is wider
// than the host's own speed swings (up to 1.65x over seconds on a shared
// VM): with campaigns of one size, the latency percentiles would jump
// between a fast and a slow mode with the share of the run the host spent
// slow, rather than move in proportion to it.
const (
	fuzzSizes      = 16
	fuzzMinExecs   = 125
	fuzzMaxExecs   = 1000
	fuzzMaxInput   = 64
	fuzzExecBudget = 200_000
	// fuzzPoll is the status polling interval; it bounds how late the
	// client sees a campaign finish.
	fuzzPoll = 5 * time.Millisecond
)

type fuzzBody struct {
	Image      []byte `json:"image"`
	MaxExecs   uint64 `json:"max_execs"`
	MaxInput   int    `json:"max_input"`
	ExecBudget uint64 `json:"exec_budget"`
	Seed       int64  `json:"seed"`
}

type fuzzStatus struct {
	Execs   uint64 `json:"execs"`
	Done    bool   `json:"done"`
	Error   string `json:"error"`
	Digest  string `json:"trace_digest"`
	Crashes []struct {
		Signal    int    `json:"signal"`
		Minimized []byte `json:"minimized"`
	} `json:"crashes"`
}

// fuzzLoad runs successive POST /fuzz campaigns against the planted-crash
// target; campaign i uses seed S+i, so its trace digest is reproducible.
type fuzzLoad struct {
	seed  int64
	img   *obj.Image
	wire  []byte
	sizes stream // per campaign: its index into fuzzExecCounts

	execs   atomic.Uint64
	mu      sync.Mutex
	digests map[int]string
}

func newFuzzLoad() load { return &fuzzLoad{digests: make(map[int]string)} }

func (w *fuzzLoad) setup(ctx context.Context, e *env, seed int64) error {
	img, err := workload.FuzzTarget(riscv.RV64GC, true)
	if err != nil {
		return err
	}
	w.seed, w.img = seed, img
	w.sizes = cycleStream(seed, fuzzSizes, 1<<14)
	w.wire, err = wireOf(img)
	return err
}

// fuzzExecCounts are the campaign sizes: the j-th is at the middle of the
// j-th of fuzzSizes log-size strata of [fuzzMinExecs, fuzzMaxExecs].
func fuzzExecCounts() []uint64 {
	out := make([]uint64, fuzzSizes)
	span := math.Log(float64(fuzzMaxExecs) / fuzzMinExecs)
	for j := range out {
		out[j] = uint64(fuzzMinExecs * math.Exp(span*(float64(j)+0.5)/fuzzSizes))
	}
	return out
}

func (w *fuzzLoad) op(ctx context.Context, c *client, i int) error {
	execs := fuzzExecCounts()[w.sizes.at(i)]
	body, err := json.Marshal(fuzzBody{
		Image: w.wire, MaxExecs: execs, MaxInput: fuzzMaxInput,
		ExecBudget: fuzzExecBudget, Seed: w.seed + int64(i),
	})
	if err != nil {
		return err
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := c.call(ctx, "POST", "/fuzz", body, &created); err != nil {
		return err
	}
	var st fuzzStatus
	for !st.Done {
		select {
		case <-time.After(fuzzPoll):
		case <-ctx.Done():
			return ctx.Err()
		}
		st = fuzzStatus{}
		if err := c.call(ctx, "GET", "/fuzz/"+created.ID, nil, &st); err != nil {
			return err
		}
	}
	if err := checkCampaign(&st, execs); err != nil {
		return fmt.Errorf("campaign %d: %w", i, err)
	}
	w.execs.Add(st.Execs)
	w.mu.Lock()
	w.digests[i] = st.Digest
	w.mu.Unlock()
	return nil
}

// checkCampaign requires a clean finish at the campaign's execs and the
// planted crash triaged to the known reproducer
// (workload.FuzzTargetCrashInput, derived from the target's source, not
// from the fuzzer).
func checkCampaign(st *fuzzStatus, execs uint64) error {
	if st.Error != "" {
		return fmt.Errorf("campaign error: %s", st.Error)
	}
	if st.Execs < execs {
		return fmt.Errorf("%d execs, want at least %d", st.Execs, execs)
	}
	want := workload.FuzzTargetCrashInput()
	for _, cr := range st.Crashes {
		if cr.Signal == 11 && bytes.Equal(cr.Minimized, want) {
			return nil
		}
	}
	return fmt.Errorf("planted crash not found (%d buckets)", len(st.Crashes))
}

func (w *fuzzLoad) verify() (int, error) { return 0, nil }

func (w *fuzzLoad) replay() ([]*obj.Image, error) { return []*obj.Image{w.img}, nil }

// info reports exec throughput and the trace digests in campaign order, so
// two runs with one seed can be compared digest by digest.
func (w *fuzzLoad) info(wall float64) map[string]any {
	w.mu.Lock()
	defer w.mu.Unlock()
	idx := make([]int, 0, len(w.digests))
	for i := range w.digests {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	digests := make([]string, len(idx))
	for k, i := range idx {
		digests[k] = w.digests[i]
	}
	return map[string]any{
		"execs_per_s":   float64(w.execs.Load()) / wall,
		"trace_digests": digests,
	}
}
