package bench

import (
	"fmt"
	"io"

	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/heterosys"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// Fig11Config sizes the §6.1 heterogeneous-computing experiment. The paper
// runs 1000 tasks on the 8-core board; the defaults here are scaled for the
// simulated machine while preserving the task mix and cost ratios.
type Fig11Config struct {
	BaseCores, ExtCores int
	Tasks               int
	MatmulN             int64
	// Shares are the extension-task percentages of the x axis.
	Shares []int
	// SliceInstr is the scheduler quantum.
	SliceInstr uint64
}

// DefaultFig11 mirrors the paper's setup at simulation scale.
func DefaultFig11() Fig11Config {
	return Fig11Config{
		BaseCores: 4, ExtCores: 4,
		Tasks:   120,
		MatmulN: 20,
		Shares:  []int{0, 20, 40, 60, 80, 100},
	}
}

// Fig11Cell is one (system, share) measurement.
type Fig11Cell struct {
	CPUTime uint64 // accumulated busy cycles
	Latency uint64 // makespan cycles
	// AcceleratedPct is the Fig. 12 breakdown: the share of extension tasks
	// that ran vector-accelerated.
	AcceleratedPct float64
}

// Fig11Result holds one version's (ext or base input) sweep.
type Fig11Result struct {
	InputExt bool
	Shares   []int
	Cells    map[heterosys.System][]Fig11Cell
}

// calibrateFib picks Fibonacci rounds so a base task costs about as much as
// an extension task on a base core (the paper's 2:2:2:1 ratio, with the
// extension task on an extension core as the "1").
func calibrateFib(matmulN int64) (int64, error) {
	base, err := workload.Matmul(matmulN, false, true)
	if err != nil {
		return 0, err
	}
	baseCycles, err := nativeCycles(base)
	if err != nil {
		return 0, err
	}
	// Use the marginal per-round cost so fixed startup costs don't skew the
	// calibration.
	one, err := workload.Fibonacci(1, riscv.RV64GC, true)
	if err != nil {
		return 0, err
	}
	oneCycles, err := nativeCycles(one)
	if err != nil {
		return 0, err
	}
	eleven, err := workload.Fibonacci(11, riscv.RV64GC, true)
	if err != nil {
		return 0, err
	}
	elevenCycles, err := nativeCycles(eleven)
	if err != nil {
		return 0, err
	}
	perRound := (elevenCycles - oneCycles) / 10
	if perRound == 0 {
		perRound = 1
	}
	rounds := int64(1 + (baseCycles-oneCycles)/perRound)
	if rounds < 1 {
		rounds = 1
	}
	return rounds, nil
}

// Fig11 runs the experiment for one input version (ext: downgrading;
// base: upgrading — the (a,b) and (c,d) halves of the figure).
func Fig11(cfg Fig11Config, inputExt bool) (*Fig11Result, error) {
	fibRounds, err := calibrateFib(cfg.MatmulN)
	if err != nil {
		return nil, err
	}
	fibBase, fibExt, err := workload.FibPair(fibRounds, true)
	if err != nil {
		return nil, err
	}
	mmBase, mmExt, err := workload.MatmulPair(cfg.MatmulN, true)
	if err != nil {
		return nil, err
	}

	res := &Fig11Result{
		InputExt: inputExt,
		Shares:   cfg.Shares,
		Cells:    make(map[heterosys.System][]Fig11Cell),
	}
	for _, sys := range systemsOrder {
		prFib, err := heterosys.Prepare(sys, fibBase, fibExt, inputExt)
		if err != nil {
			return nil, fmt.Errorf("fig11 %s: %w", sys, err)
		}
		prMM, err := heterosys.Prepare(sys, mmBase, mmExt, inputExt)
		if err != nil {
			return nil, fmt.Errorf("fig11 %s: %w", sys, err)
		}
		for _, share := range cfg.Shares {
			m := kernel.NewMachine(cfg.BaseCores, cfg.ExtCores)
			s := kernel.NewScheduler(m)
			if cfg.SliceInstr != 0 {
				s.SliceInstr = cfg.SliceInstr
			}
			extTasks := cfg.Tasks * share / 100
			for i := 0; i < cfg.Tasks; i++ {
				var task *kernel.Task
				var err error
				if i < extTasks {
					task, err = prMM.NewTask("mm", true)
				} else {
					task, err = prFib.NewTask("fib", false)
				}
				if err != nil {
					return nil, err
				}
				s.Submit(task)
			}
			out, err := s.Run()
			if err != nil {
				return nil, fmt.Errorf("fig11 %s share %d: %w", sys, share, err)
			}
			cell := Fig11Cell{CPUTime: out.CPUTime, Latency: out.Latency}
			if extTasks > 0 {
				acc := 0
				for _, t := range out.Tasks {
					if t.NeedsExt && t.Accelerated {
						acc++
					}
				}
				cell.AcceleratedPct = 100 * float64(acc) / float64(extTasks)
			}
			res.Cells[sys] = append(res.Cells[sys], cell)
		}
	}
	return res, nil
}

// Print renders the Fig. 11 (and Fig. 12) series as a table.
func (r *Fig11Result) Print(w io.Writer) {
	version := "Extension Version (downgrading)"
	if !r.InputExt {
		version = "Base Version (upgrading)"
	}
	fmt.Fprintf(w, "Figure 11 — %s\n", version)
	fmt.Fprintf(w, "%-10s", "share%")
	for _, s := range r.Shares {
		fmt.Fprintf(w, "%10d", s)
	}
	fmt.Fprintln(w)
	hr(w, 10+10*len(r.Shares))
	for _, metric := range []string{"cpu[ms]", "lat[ms]", "acc[%]"} {
		for _, sys := range systemsOrder {
			fmt.Fprintf(w, "%-14s", fmt.Sprintf("%s %s", sys, metric))
			for i := range r.Shares {
				c := r.Cells[sys][i]
				switch metric {
				case "cpu[ms]":
					fmt.Fprintf(w, "%10.3f", 1000*emu.Seconds(c.CPUTime))
				case "lat[ms]":
					fmt.Fprintf(w, "%10.3f", 1000*emu.Seconds(c.Latency))
				case "acc[%]":
					fmt.Fprintf(w, "%10.1f", c.AcceleratedPct)
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

// OverheadVsMELF returns Chimera's average latency overhead relative to
// MELF across the sweep — the paper's headline 3.2%/5.3% number.
func (r *Fig11Result) OverheadVsMELF() float64 {
	var sum float64
	n := 0
	for i := range r.Shares {
		melf := float64(r.Cells[heterosys.MELF][i].Latency)
		chim := float64(r.Cells[heterosys.Chimera][i].Latency)
		if melf > 0 {
			sum += chim/melf - 1
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
