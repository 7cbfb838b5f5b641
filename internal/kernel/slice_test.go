package kernel_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/corpus"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// runOutcome is what a caller of RunToExit can observe of a finished run.
type runOutcome struct {
	exitCode uint64
	signal   int
	output   string
	instret  uint64
	cycles   uint64
	counters kernel.Counters
}

// sliceCase is one process setup the invariance property runs repeatedly.
type sliceCase struct {
	name string
	isa  riscv.Ext
	vars []kernel.Variant
}

func sliceCases(t *testing.T) []sliceCase {
	t.Helper()
	var cases []sliceCase
	for _, sc := range []workload.SpecCase{workload.SpecSuite()[0], workload.SpecSuite()[4]} {
		params := sc.Params
		// Long enough (3.5M and 6.4M instructions downgraded) that every
		// slice size but the largest cuts a run.
		params.CodeKB, params.Rounds = 24, 200
		img, err := workload.BuildSpec(params, true)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, withCHBP(t, params.Name, img)...)
	}
	for _, f := range corpus.Families() {
		prog, err := f.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, withCHBP(t, "corpus/"+f.Name, prog.Image)...)
	}
	return cases
}

// withCHBP returns the image run natively on an extension core and, when
// CHBP can downgrade it, the two-view process on a base core, where fault
// recovery, traps and runtime rewrites happen.
func withCHBP(t *testing.T, name string, img *obj.Image) []sliceCase {
	t.Helper()
	orig := kernel.Variant{ISA: riscv.RV64GCV, Image: img}
	cases := []sliceCase{{name + "/native", riscv.RV64GCV, []kernel.Variant{orig}}}
	res, err := chbp.Rewrite(img, chbp.Options{TargetISA: riscv.RV64GC})
	if err != nil {
		return cases
	}
	return append(cases, sliceCase{name + "/chbp", riscv.RV64GC,
		[]kernel.Variant{orig, {ISA: riscv.RV64GC, Image: res.Image}}})
}

// TestRunToExitSliceInvariance is the property callers rely on when they
// pick a slice size only for how often they poll: a run's exit code,
// output, instret, cycles and kernel counters do not depend on the slice
// RunToExit is given, on the block tier and the trace tier alike, over
// SPEC-shaped programs and every corpus family, each run natively and
// CHBP-downgraded.
func TestRunToExitSliceInvariance(t *testing.T) {
	slices := []uint64{1021, 100_000, 2_000_000, 10_000_000}
	tiers := []struct {
		name      string
		threshold uint32
	}{{"blocks", 0}, {"traces", 2}}
	for _, c := range sliceCases(t) {
		var ref runOutcome
		var refLabel string
		for _, tier := range tiers {
			for _, slice := range slices {
				label := fmt.Sprintf("%s/%s/slice=%d", c.name, tier.name, slice)
				p, err := kernel.NewProcess(c.name, c.vars)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.MigrateTo(c.isa); err != nil {
					t.Fatal(err)
				}
				p.CPU.TraceThreshold = tier.threshold
				cycles, st, err := p.RunToExit(context.Background(), slice)
				if err != nil || st != kernel.StatusExited {
					t.Fatalf("%s: status %v, err %v", label, st, err)
				}
				got := runOutcome{p.ExitCode, p.Signal, string(p.Output), p.CPU.Instret, cycles, p.Counters}
				if refLabel == "" {
					ref, refLabel = got, label
					continue
				}
				if got != ref {
					t.Errorf("%s: %+v\n%s: %+v", label, got, refLabel, ref)
				}
			}
		}
	}
}
