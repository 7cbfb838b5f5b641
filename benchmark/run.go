package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync/atomic"

	"github.com/eurosys26p57/chimera/internal/bench"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// runBody is the POST /run JSON body.
type runBody struct {
	ISA   string `json:"isa,omitempty"`
	Image []byte `json:"image"`
	With  []byte `json:"with,omitempty"`
}

// runAnswer is the part of the /run answer the checks read.
type runAnswer struct {
	ExitCode uint64 `json:"exit_code"`
	Cycles   uint64 `json:"cycles"`
	Instret  uint64 `json:"instret"`
	Output   string `json:"output"`
}

// runProgram is one /run target with its reference answer.
type runProgram struct {
	orig *obj.Image
	body []byte
	// exit and output come from the original image run on rv64gcv, which
	// involves no rewriter; cycles from the served run during setup.
	exit       uint64
	output     string
	cycles     uint64
	baseCycles uint64
}

// runLoad sends /run for 24 programs, each rewritten by chbp to rv64gc
// during setup and run with its original as the sibling view.
type runLoad struct {
	progs   []*runProgram
	order   stream
	instret atomic.Uint64
}

func newRunLoad() load { return &runLoad{} }

// runShapes are the SPEC shapes of the run population, each built once
// short and once long. The shapes are fixed so every seed runs the same
// instruction counts; the seed varies the generated instruction mix.
var runShapes = []string{
	"perlbench_r", "omnetpp_r", "xalancbmk_r", "cactuBSSN_r",
	"parest_r", "imagick_r", "Git", "Python",
}

// runDispatch are the dispatch-family arm shapes (the BenchmarkResolve
// population's arm counts); the seed picks each one's bound idiom and
// encoding, which change the resolver's work but not the dynamic path.
var runDispatch = []struct {
	arms, vec int
	midEntry  bool
}{
	{2, 1, true}, {3, 2, false}, {4, 2, false}, {4, 3, true},
	{6, 3, false}, {6, 5, true}, {8, 4, false}, {8, 7, false},
}

// runPrograms builds the population: 16 SPEC-shaped programs at 128 KiB,
// each of runShapes once short (Rounds 4, translation-heavy) and once long
// (Rounds 60, execution-heavy), plus the 8 dispatch-family programs with
// the resolver on for half, so hidden vector arms take the kernel's
// runtime-rewrite fault path. Each comes as (original rv64gcv, base rv64gc,
// resolve flag).
func runPrograms(seed int64) (origs, bases []*obj.Image, resolveOn []bool, err error) {
	rng := rand.New(rand.NewSource(seed))
	shapes := make(map[string]workload.SpecParams)
	for _, c := range append(workload.SpecSuite(), workload.RealWorldSuite()...) {
		shapes[c.Params.Name] = c.Params
	}
	add := func(o, b *obj.Image, res bool) {
		origs, bases, resolveOn = append(origs, o), append(bases, b), append(resolveOn, res)
	}
	for j := 0; j < 2*len(runShapes); j++ {
		p := shapes[runShapes[j%len(runShapes)]]
		p.Name = fmt.Sprintf("%s.%d", p.Name, j)
		p.Seed = rng.Int63()
		p.CodeKB = 128
		p.Rounds = 4
		if j >= len(runShapes) {
			p.Rounds = 60
		}
		o, err := workload.BuildSpec(p, true)
		if err != nil {
			return nil, nil, nil, err
		}
		b, err := workload.BuildSpec(p, false)
		if err != nil {
			return nil, nil, nil, err
		}
		add(o, b, false)
	}
	bounds := []workload.BoundKind{workload.BoundREMU, workload.BoundBGEU, workload.BoundSLTIU, workload.BoundBLTU}
	for j, d := range runDispatch {
		p := workload.DispatchParams{
			Name: fmt.Sprintf("dispatch-a%d-v%d.%d", d.arms, d.vec, j), Arms: d.arms, VecArms: d.vec,
			Rounds: 24, Bound: bounds[rng.Intn(len(bounds))],
			MidEntry: d.midEntry, Compress: rng.Intn(2) == 1,
		}
		o, err := workload.BuildDispatch(p, true)
		if err != nil {
			return nil, nil, nil, err
		}
		b, err := workload.BuildDispatch(p, false)
		if err != nil {
			return nil, nil, nil, err
		}
		add(o, b, j%2 == 0)
	}
	return origs, bases, resolveOn, nil
}

// nativeRun runs img alone on a core of isa.
func nativeRun(img *obj.Image, isa riscv.Ext) (*kernel.Process, uint64, error) {
	p, err := kernel.NewProcess(img.Name, []kernel.Variant{{ISA: img.ISA, Image: img}})
	if err != nil {
		return nil, 0, err
	}
	cycles, err := bench.RunOnCore(p, isa)
	return p, cycles, err
}

func (w *runLoad) setup(ctx context.Context, e *env, seed int64) error {
	origs, bases, resolveOn, err := runPrograms(seed)
	if err != nil {
		return err
	}
	c := e.clients[0]
	w.progs = make([]*runProgram, len(origs))
	err = parallel(len(origs), func(j int) error {
		orig := origs[j]
		pr := &runProgram{orig: orig}
		ref, _, err := nativeRun(orig, riscv.RV64GCV)
		if err != nil {
			return fmt.Errorf("reference run of %s: %w", orig.Name, err)
		}
		pr.exit, pr.output = ref.ExitCode, string(ref.Output)
		if _, pr.baseCycles, err = nativeRun(bases[j], riscv.RV64GC); err != nil {
			return fmt.Errorf("base run of %s: %w", orig.Name, err)
		}
		wire, err := wireOf(orig)
		if err != nil {
			return err
		}
		cfg := rewriteConfig{method: "chbp", target: riscv.RV64GC, resolve: resolveOn[j]}
		a, err := postRewrite(ctx, c, cfg, rewriteRequest(cfg, wire), false)
		if err != nil {
			return fmt.Errorf("rewriting %s: %w", orig.Name, err)
		}
		if pr.body, err = json.Marshal(runBody{ISA: isaName(riscv.RV64GC), Image: a.Image, With: wire}); err != nil {
			return err
		}
		var ans runAnswer
		if err := c.call(ctx, "POST", "/run", pr.body, &ans); err != nil {
			return fmt.Errorf("running %s: %w", orig.Name, err)
		}
		if err := pr.check(&ans, false); err != nil {
			return err
		}
		pr.cycles = ans.Cycles
		w.progs[j] = pr
		return nil
	})
	if err != nil {
		return err
	}
	w.order = cycleStream(seed, len(w.progs), 1<<16)
	return nil
}

// check compares a /run answer with the reference exit code and output,
// and (withCycles) with the cycle count of the setup run.
func (pr *runProgram) check(a *runAnswer, withCycles bool) error {
	switch {
	case a.ExitCode != pr.exit:
		return fmt.Errorf("%s: exit code %d, reference %d", pr.orig.Name, a.ExitCode, pr.exit)
	case a.Output != pr.output:
		return fmt.Errorf("%s: output %q, reference %q", pr.orig.Name, a.Output, pr.output)
	case withCycles && a.Cycles != pr.cycles:
		return fmt.Errorf("%s: %d cycles, setup run took %d", pr.orig.Name, a.Cycles, pr.cycles)
	}
	return nil
}

func (w *runLoad) op(ctx context.Context, c *client, i int) error {
	pr := w.progs[w.order.at(i)]
	var a runAnswer
	if err := c.call(ctx, "POST", "/run", pr.body, &a); err != nil {
		return err
	}
	if err := pr.check(&a, true); err != nil {
		return err
	}
	w.instret.Add(a.Instret)
	return nil
}

func (w *runLoad) verify() (int, error) { return 0, nil }

func (w *runLoad) replay() ([]*obj.Image, error) {
	var out []*obj.Image
	for _, j := range replayPick(w.order.at, replayRequests, replayBinaries) {
		out = append(out, w.progs[j].orig)
	}
	return out, nil
}

// info reports the guest throughput of the window and the simulated
// overhead of the served images over native base builds (deterministic).
func (w *runLoad) info(wall float64) map[string]any {
	ratios := make([]float64, len(w.progs))
	for j, pr := range w.progs {
		ratios[j] = float64(pr.cycles) / float64(pr.baseCycles)
	}
	return map[string]any{
		"guest_mips":         float64(w.instret.Load()) / wall / 1e6,
		"cycle_overhead_pct": 100 * (geomean(ratios) - 1),
	}
}
