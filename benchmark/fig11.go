package main

import (
	"context"
	"fmt"
	"sync"

	"github.com/eurosys26p57/chimera/internal/bench"
	"github.com/eurosys26p57/chimera/internal/heterosys"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// fig11Config is the sweep: 4 base + 4 extension cores, 24 tasks, 16×16
// matmul, extension-task shares 0–100 % in steps of 20.
func fig11Config() bench.Fig11Config {
	return bench.Fig11Config{
		BaseCores: 4, ExtCores: 4, Tasks: 24, MatmulN: 16,
		Shares: []int{0, 20, 40, 60, 80, 100},
	}
}

// fig11Point is one (direction, share) cell of the sweep.
type fig11Point struct {
	inputExt bool
	share    int
	idx      int // position of share in the sweep
}

// fig11Load runs the Fig. 11 sweep one point per op, both directions, in
// seeded order. Every point must reproduce the reference sweep's cells
// exactly: the simulation is deterministic. The reference full sweeps run
// once, after the window.
type fig11Load struct {
	points []fig11Point
	order  stream
	ref    map[bool]*bench.Fig11Result

	mu  sync.Mutex
	got []fig11Cells
}

// fig11Cells is one op's answer: its point and each system's cell.
type fig11Cells struct {
	point int
	cells map[heterosys.System]bench.Fig11Cell
}

func newFig11Load() load { return &fig11Load{ref: make(map[bool]*bench.Fig11Result)} }

func (w *fig11Load) setup(ctx context.Context, e *env, seed int64) error {
	for _, ext := range []bool{true, false} {
		for k, s := range fig11Config().Shares {
			w.points = append(w.points, fig11Point{inputExt: ext, share: s, idx: k})
		}
	}
	w.order = cycleStream(seed, len(w.points), 1<<14)
	return nil
}

func (w *fig11Load) op(ctx context.Context, c *client, i int) error {
	k := w.order.at(i)
	pt := w.points[k]
	cfg := fig11Config()
	cfg.Shares = []int{pt.share}
	res, err := bench.Fig11(cfg, pt.inputExt)
	if err != nil {
		return err
	}
	got := fig11Cells{point: k, cells: make(map[heterosys.System]bench.Fig11Cell)}
	for _, sys := range heterosys.Systems {
		got.cells[sys] = res.Cells[sys][0]
	}
	w.mu.Lock()
	w.got = append(w.got, got)
	w.mu.Unlock()
	return nil
}

// verify runs the reference sweeps and compares every answered point.
func (w *fig11Load) verify() (int, error) {
	for _, ext := range []bool{true, false} {
		res, err := bench.Fig11(fig11Config(), ext)
		if err != nil {
			return len(w.got), fmt.Errorf("reference sweep: %w", err)
		}
		w.ref[ext] = res
	}
	failed := 0
	var first error
	for _, g := range w.got {
		pt := w.points[g.point]
		for _, sys := range heterosys.Systems {
			if want := w.ref[pt.inputExt].Cells[sys][pt.idx]; g.cells[sys] != want {
				failed++
				if first == nil {
					first = fmt.Errorf("fig11 ext=%t share %d %s: %+v, reference %+v", pt.inputExt, pt.share, sys, g.cells[sys], want)
				}
				break
			}
		}
	}
	return failed, first
}

func (w *fig11Load) replay() ([]*obj.Image, error) {
	base, ext, err := workload.MatmulPair(fig11Config().MatmulN, true)
	if err != nil {
		return nil, err
	}
	return []*obj.Image{ext, base}, nil
}

// info reports the paper's headline: Chimera's latency overhead over MELF,
// averaged over the downgrade and upgrade halves (deterministic).
func (w *fig11Load) info(wall float64) map[string]any {
	return map[string]any{
		"melf_overhead_pct": 100 * (w.ref[true].OverheadVsMELF() + w.ref[false].OverheadVsMELF()) / 2,
	}
}
