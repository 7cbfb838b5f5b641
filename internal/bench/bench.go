// Package bench regenerates the paper's evaluation (§6): every figure and
// table has a typed experiment that produces the same rows/series the paper
// reports. Absolute numbers come from the simulated machine's cost model;
// the shapes — who wins, by what factor, where crossovers fall — are the
// reproduction targets (see EXPERIMENTS.md).
package bench

import (
	"context"
	"fmt"
	"io"

	"github.com/eurosys26p57/chimera/internal/heterosys"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// maxRunInstret bounds RunOnCore: a guest still running after this many
// retired instructions is reported as not terminating.
const maxRunInstret = 5_000_000_000_000

// RunOnCore drives a process to completion on a single core of the given
// ISA, returning total consumed cycles (guest + kernel).
func RunOnCore(p *kernel.Process, isa riscv.Ext) (uint64, error) {
	if err := p.MigrateTo(isa); err != nil {
		return 0, err
	}
	p.CPU.MaxInstret = p.CPU.Instret + maxRunInstret
	total, st, err := p.RunToExit(context.Background(), 5_000_000)
	switch {
	case err != nil:
		return total, err
	case p.Signal != 0:
		return total, fmt.Errorf("bench: %s killed by signal %d", p.Name, p.Signal)
	case st == kernel.StatusNeedMigration:
		return total, fmt.Errorf("bench: %s cannot run on %v", p.Name, isa)
	case st == kernel.StatusBudget:
		return total, fmt.Errorf("bench: %s did not terminate", p.Name)
	}
	return total, nil
}

// runNative runs an image natively (no rewriting) and returns its cycles
// and exit code.
func runNative(img *obj.Image) (cycles, exit uint64, err error) {
	p, err := kernel.NewProcess(img.Name, []kernel.Variant{{ISA: img.ISA, Image: img}})
	if err != nil {
		return 0, 0, err
	}
	cycles, err = RunOnCore(p, img.ISA)
	return cycles, p.ExitCode, err
}

// pct renders a ratio as a percentage string.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// hr prints a horizontal rule.
func hr(w io.Writer, n int) {
	for i := 0; i < n; i++ {
		fmt.Fprint(w, "-")
	}
	fmt.Fprintln(w)
}

// systemsOrder is the presentation order used in tables.
var systemsOrder = []heterosys.System{heterosys.FAM, heterosys.Safer, heterosys.MELF, heterosys.Chimera}
