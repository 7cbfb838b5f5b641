// Package bench regenerates the paper's evaluation (§6): every figure and
// table has a typed experiment that produces the same rows/series the paper
// reports. Absolute numbers come from the simulated machine's cost model;
// the shapes — who wins, by what factor, where crossovers fall — are the
// reproduction targets (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"

	"github.com/eurosys26p57/chimera/internal/heterosys"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// RunOnCore drives a process to completion on a single core of the given
// ISA, returning total consumed cycles (guest + kernel). Exported because
// the rewrite service's /run endpoint executes requests through the same
// loop the experiments use.
func RunOnCore(p *kernel.Process, isa riscv.Ext) (uint64, error) {
	if err := p.MigrateTo(isa); err != nil {
		return 0, err
	}
	p.CPU.ISA = isa
	var total uint64
	for i := 0; i < 1_000_000; i++ {
		cycles, st, err := p.Run(5_000_000)
		total += cycles
		if err != nil {
			return total, err
		}
		switch st {
		case kernel.StatusExited:
			if p.ExitCode >= 128 {
				return total, fmt.Errorf("bench: %s killed by signal %d", p.Name, p.ExitCode-128)
			}
			return total, nil
		case kernel.StatusNeedMigration:
			return total, fmt.Errorf("bench: %s cannot run on %v", p.Name, isa)
		}
	}
	return total, fmt.Errorf("bench: %s did not terminate", p.Name)
}

// nativeCycles runs an image natively (no rewriting) and returns cycles.
func nativeCycles(img *obj.Image) (uint64, error) {
	p, err := kernel.NewProcess(img.Name, []kernel.Variant{{ISA: img.ISA, Image: img}})
	if err != nil {
		return 0, err
	}
	return RunOnCore(p, img.ISA)
}

// exitOf runs an image natively and returns its exit code, for correctness
// cross-checks inside experiments.
func exitOf(img *obj.Image) (uint64, error) {
	p, err := kernel.NewProcess(img.Name, []kernel.Variant{{ISA: img.ISA, Image: img}})
	if err != nil {
		return 0, err
	}
	if _, err := RunOnCore(p, img.ISA); err != nil {
		return 0, err
	}
	return p.ExitCode, nil
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
