package bench

import (
	"fmt"
	"io"

	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// Fig13Row is one benchmark's measurement: performance degradation of each
// rewriting method relative to the original binary (Fig. 13) and the
// correctness-mechanism trigger counts (Table 2).
type Fig13Row struct {
	Name         string
	NativeCycles uint64
	// Degradation maps method to (rewritten-native)/native.
	Degradation map[string]float64
	// Triggers maps method to its §6.2 "fault handling trigger count":
	// deterministic-fault recoveries for CHBP, traps for ARMore/strawman,
	// pointer checks for Safer.
	Triggers map[string]uint64
}

// runRewritten executes an empty-patched rewritten variant on an extension
// core through the kernel and returns (cycles, triggers, exit).
func runRewritten(method string, v kernel.Variant) (uint64, uint64, uint64, error) {
	p, err := kernel.NewProcess(v.Image.Name, []kernel.Variant{v})
	if err != nil {
		return 0, 0, 0, err
	}
	cycles, err := RunOnCore(p, riscv.RV64GCV)
	if err != nil {
		return 0, 0, 0, err
	}
	var triggers uint64
	switch method {
	case "chbp":
		triggers = p.Counters.FaultRecoveries + p.Counters.Traps
	case "strawman", "armore":
		triggers = p.Counters.Traps
	case "safer":
		triggers = p.Counters.Checks
	}
	return cycles, triggers, p.ExitCode, nil
}

// Fig13Case measures one benchmark under all methods using the §6.2
// empty-patching methodology: sources are replicated, so the overhead is
// purely the rewriting mechanics.
func Fig13Case(c workload.SpecCase, rounds int64) (*Fig13Row, error) {
	params := c.Params
	if rounds > 0 {
		params.Rounds = rounds
	}
	ext, err := workload.BuildSpec(params, true)
	if err != nil {
		return nil, err
	}
	native, wantExit, err := runNative(ext)
	if err != nil {
		return nil, fmt.Errorf("%s native: %w", params.Name, err)
	}
	row := &Fig13Row{
		Name:         params.Name,
		NativeCycles: native,
		Degradation:  make(map[string]float64),
		Triggers:     make(map[string]uint64),
	}
	for _, method := range rewriters.Methods {
		rw, err := rewriters.Rewrite(ext, rewriters.Config{Method: method, Target: riscv.RV64GCV, EmptyPatch: true})
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", params.Name, method, err)
		}
		cycles, triggers, exit, err := runRewritten(method, kernel.Variant{ISA: rw.Image.ISA, Image: rw.Image})
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", params.Name, method, err)
		}
		if exit != wantExit {
			return nil, fmt.Errorf("%s %s: exit %d, original %d — correctness violated",
				params.Name, method, exit, wantExit)
		}
		row.Degradation[method] = float64(cycles)/float64(native) - 1
		row.Triggers[method] = triggers
	}
	return row, nil
}

// Fig13 runs the full §6.2 sweep.
func Fig13(cases []workload.SpecCase, rounds int64) ([]*Fig13Row, error) {
	var rows []*Fig13Row
	for _, c := range cases {
		row, err := Fig13Case(c, rounds)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig13 renders the degradation table (the paper's bar chart rows).
func PrintFig13(w io.Writer, rows []*Fig13Row) {
	fmt.Fprintln(w, "Figure 13 — performance degradation vs original (empty patching)")
	fmt.Fprintf(w, "%-14s", "benchmark")
	for _, m := range rewriters.Methods {
		fmt.Fprintf(w, "%12s", m)
	}
	fmt.Fprintln(w)
	hr(w, 14+12*len(rewriters.Methods))
	sums := make(map[string]float64)
	worst := make(map[string]float64)
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s", r.Name)
		for _, m := range rewriters.Methods {
			d := r.Degradation[m]
			sums[m] += d
			if d > worst[m] {
				worst[m] = d
			}
			fmt.Fprintf(w, "%12s", pct(d))
		}
		fmt.Fprintln(w)
	}
	hr(w, 14+12*len(rewriters.Methods))
	fmt.Fprintf(w, "%-14s", "average")
	for _, m := range rewriters.Methods {
		fmt.Fprintf(w, "%12s", pct(sums[m]/float64(len(rows))))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-14s", "worst")
	for _, m := range rewriters.Methods {
		fmt.Fprintf(w, "%12s", pct(worst[m]))
	}
	fmt.Fprintln(w)
}

// PrintTable2 renders the correctness-mechanism trigger counts.
func PrintTable2(w io.Writer, rows []*Fig13Row) {
	fmt.Fprintln(w, "Table 2 — fault handling trigger count")
	fmt.Fprintf(w, "%-14s%14s%14s%14s%14s\n", "benchmark", "CHBP", "Safer", "ARMore", "Strawman")
	hr(w, 14+14*4)
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s%14d%14d%14d%14d\n", r.Name,
			r.Triggers["chbp"], r.Triggers["safer"], r.Triggers["armore"], r.Triggers["strawman"])
	}
}

// Table3Row is one benchmark's rewrite statistics (§6.3).
type Table3Row struct {
	Name       string
	CodeSizeMB float64
	ExtPct     float64
	Tramps     int
	// DeadRegFailOurs / DeadRegFailTraditional are the "Dead Reg Not Found"
	// pair: CHBP's exit-position shifting vs plain liveness analysis.
	DeadRegFailOurs, DeadRegFailTraditional int
	Sites                                   int
}

// Table3 rewrites every benchmark for the base ISA (real downgrade, not
// empty patching) and reports the Table 3 columns.
func Table3(cases []workload.SpecCase, rounds int64) ([]*Table3Row, error) {
	var rows []*Table3Row
	for _, c := range cases {
		params := c.Params
		if rounds > 0 {
			params.Rounds = rounds
		}
		// Rewrite statistics are static: scale the function count up toward
		// the paper's per-binary trampoline populations without inflating
		// the dynamic experiments.
		params.Funcs *= 8
		params.VecFuncs *= 8
		params.PressureFuncs *= 8
		// HardPressureFuncs stays at its per-binary value: trap-exit
		// fallbacks are rare (the paper's 1.1%)
		params.Rounds = 1
		ext, err := workload.BuildSpec(params, true)
		if err != nil {
			return nil, err
		}
		res, err := chbp.Rewrite(ext, chbp.Options{TargetISA: riscv.RV64GC})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", params.Name, err)
		}
		rows = append(rows, &Table3Row{
			Name:                   params.Name,
			CodeSizeMB:             float64(res.Stats.CodeSize) / (1 << 20),
			ExtPct:                 res.Stats.ExtPct,
			Tramps:                 res.Stats.SmileEntries + res.Stats.TrapEntries,
			DeadRegFailOurs:        res.Stats.DeadRegFailShifted,
			DeadRegFailTraditional: res.Stats.DeadRegFailTraditional,
			Sites:                  res.Stats.Sites,
		})
	}
	return rows, nil
}

// PrintTable3 renders the rewrite statistics.
func PrintTable3(w io.Writer, rows []*Table3Row) {
	fmt.Fprintln(w, "Table 3 — CHBP rewrite statistics")
	fmt.Fprintf(w, "%-14s%12s%10s%12s%18s\n",
		"benchmark", "code(MB)", "ext%", "tramps", "deadreg(ours/trad)")
	hr(w, 14+12+10+12+18)
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s%12.2f%10.2f%12d%12d/%d\n",
			r.Name, r.CodeSizeMB, r.ExtPct, r.Tramps,
			r.DeadRegFailOurs, r.DeadRegFailTraditional)
	}
}

// AblationRow is one design-choice toggle measurement.
type AblationRow struct {
	Name      string
	Variant   string
	Cycles    uint64
	Overhead  float64 // vs native
	DeadFails int
}

// Ablations measures CHBP's design choices on one benchmark: SMILE vs trap
// trampolines (A1), exit-position shifting on/off (A2), and basic-block
// batching on/off (A3).
func Ablations(c workload.SpecCase, rounds int64) ([]*AblationRow, error) {
	params := c.Params
	if rounds > 0 {
		params.Rounds = rounds
	}
	ext, err := workload.BuildSpec(params, true)
	if err != nil {
		return nil, err
	}
	native, _, err := runNative(ext)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		opts chbp.Options
	}{
		{"chbp (full)", chbp.Options{TargetISA: riscv.RV64GCV, EmptyPatch: true}},
		{"A1 trap trampolines", chbp.Options{TargetISA: riscv.RV64GCV, EmptyPatch: true, Trampoline: chbp.TrapEntry}},
		{"A2 no exit shifting", chbp.Options{TargetISA: riscv.RV64GCV, EmptyPatch: true, DisableExitShift: true}},
		{"A3 no batching", chbp.Options{TargetISA: riscv.RV64GCV, EmptyPatch: true, DisableBatching: true}},
	}
	var rows []*AblationRow
	for _, v := range variants {
		res, err := chbp.Rewrite(ext, v.opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		view := kernel.Variant{ISA: res.Image.ISA, Image: res.Image}
		cycles, _, _, err := runRewritten("chbp", view)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		rows = append(rows, &AblationRow{
			Name:      params.Name,
			Variant:   v.name,
			Cycles:    cycles,
			Overhead:  float64(cycles)/float64(native) - 1,
			DeadFails: res.Stats.DeadRegFailShifted,
		})
	}
	return rows, nil
}

// PrintAblations renders the ablation table.
func PrintAblations(w io.Writer, rows []*AblationRow) {
	fmt.Fprintln(w, "Ablations — CHBP design choices")
	fmt.Fprintf(w, "%-24s%12s%14s%10s\n", "variant", "overhead", "cycles", "deadfail")
	hr(w, 24+12+14+10)
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s%12s%14d%10d\n", r.Variant, pct(r.Overhead), r.Cycles, r.DeadFails)
	}
}
