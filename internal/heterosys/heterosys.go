// Package heterosys composes the end-to-end heterogeneous computing
// systems compared in §6: Chimera (CHBP rewriting + the Chimera runtime),
// MELF (natively compiled multi-variant binaries), FAM (fault-and-migrate
// scheduling), and a Safer-based system (regenerated per-core binaries with
// runtime pointer checks).
package heterosys

import (
	"fmt"

	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// System identifies a heterogeneous computing system.
type System string

// The compared systems.
const (
	Chimera System = "chimera"
	MELF    System = "melf"
	FAM     System = "fam"
	Safer   System = "safer"
)

// Systems lists them in the paper's presentation order.
var Systems = []System{FAM, Safer, MELF, Chimera}

// Prepared holds everything needed to instantiate processes of one program
// under one system. Rewrites are done once and reused across task instances.
type Prepared struct {
	System   System
	Variants []kernel.Variant
	FAMMode  bool
}

// Prepare builds the per-core binaries for a program under the given
// system. baseImg and extImg are the two compiled versions of §6.1 (base =
// RV64GC only; ext = vector-optimized); inputExt selects which one is the
// system's input, mirroring the downgrade/upgrade halves of Fig. 11. MELF
// is the exception: as the compilation-based ideal it always gets both.
func Prepare(sys System, baseImg, extImg *obj.Image, inputExt bool) (*Prepared, error) {
	input := baseImg
	if inputExt {
		input = extImg
	}
	switch sys {
	case MELF:
		return &Prepared{System: sys, Variants: []kernel.Variant{
			{ISA: riscv.RV64GC, Image: baseImg},
			{ISA: riscv.RV64GCV, Image: extImg},
		}}, nil
	case FAM:
		return &Prepared{System: sys, FAMMode: true, Variants: []kernel.Variant{
			{ISA: input.ISA, Image: input},
		}}, nil
	case Chimera, Safer:
		// The rewritten variant runs on the core class the input cannot
		// use directly: a downgrade of the vector build, an upgrade of the
		// base one.
		target, other := riscv.RV64GCV, riscv.RV64GC
		if inputExt {
			target, other = other, target
		}
		method := "chbp"
		if sys == Safer {
			method = "safer"
		}
		rw, err := rewriters.Rewrite(input, rewriters.Config{Method: method, Target: target})
		if err != nil {
			return nil, fmt.Errorf("heterosys: %s rewrite to %v: %w", sys, target, err)
		}
		return &Prepared{System: sys, Variants: []kernel.Variant{
			{ISA: other, Image: input},
			kernel.Variant{ISA: rw.Image.ISA, Image: rw.Image},
		}}, nil
	}
	return nil, fmt.Errorf("heterosys: unknown system %q", sys)
}

// NewTask instantiates a fresh process/task for a prepared program.
func (pr *Prepared) NewTask(name string, needsExt bool) (*kernel.Task, error) {
	p, err := kernel.NewProcess(name, pr.Variants)
	if err != nil {
		return nil, err
	}
	p.FAM = kernel.FAMPolicy(pr.FAMMode)
	return &kernel.Task{Proc: p, NeedsExt: needsExt}, nil
}
