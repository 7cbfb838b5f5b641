// chimera-rewrite rewrites an image for a target core's ISA with CHBP or
// one of the evaluated baselines, embedding the runtime tables in the
// output image.
//
// Usage:
//
//	chimera-rewrite -target rv64gc -method chbp -o prog.gc.chim prog.chim
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

func main() {
	target := flag.String("target", "rv64gc", "target ISA: rv64g, rv64gc, rv64gcv, rv64gcb")
	method := flag.String("method", "chbp", "rewriter: "+strings.Join(rewriters.Methods, ", "))
	empty := flag.Bool("empty", false, "empty patching (replicate sources; §6.2 methodology)")
	noShift := flag.Bool("no-exit-shift", false, "disable exit-position shifting (ablation)")
	noBatch := flag.Bool("no-batching", false, "disable basic-block batching (ablation)")
	doResolve := flag.Bool("resolve", false, "run the static indirect-target resolver first (recover hidden jump-table arms)")
	out := flag.String("o", "", "output image path")
	flag.Parse()
	if flag.NArg() != 1 || *out == "" {
		usage("")
	}
	// Validate flag values before touching the input file so bad invocations
	// fail fast with usage instead of late in the fatal path.
	isa, err := riscv.ParseISA(*target)
	if err != nil {
		usage(fmt.Sprintf("bad -target: %v", err))
	}
	if err := rewriters.CheckMethod(*method); err != nil {
		usage(fmt.Sprintf("bad -method: %v", err))
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	img, err := obj.ReadImage(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	res, err := rewriters.Rewrite(img, rewriters.Config{
		Method:           *method,
		Target:           isa,
		EmptyPatch:       *empty,
		DisableExitShift: *noShift,
		DisableBatching:  *noBatch,
		Resolve:          *doResolve,
	})
	if err != nil {
		fatal(err)
	}
	report(img.Name, *method, res.Stats)

	of, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer of.Close()
	if _, err := res.Image.WriteTo(of); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// report prints the rewrite statistics each method fills in.
func report(name, method string, s rewriters.Stats) {
	if s.Resolve != nil {
		fmt.Printf("resolver: %s\n", *s.Resolve)
	}
	switch method {
	case "safer":
		fmt.Printf("%s: regenerated %d instructions into %d bytes\n", name, s.Insts, s.NewCodeBytes)
		if s.Resolve != nil {
			fmt.Printf("resolved: %d recovered instructions, %d statically-encoded targets\n",
				s.RecoveredInsts, s.ResolvedTargets)
		}
		fmt.Println("note: Safer's address map is runtime state; use the in-process API for execution")
	case "armore":
		fmt.Printf("%s: %d trampolines (%d trap-based, %.1f%%)\n", name, s.Trampolines, s.TrapTrampolines,
			100*float64(s.TrapTrampolines)/float64(max(1, s.Trampolines)))
		if s.Resolve != nil {
			fmt.Printf("resolved: %d recovered instructions\n", s.RecoveredInsts)
		}
	default: // chbp, strawman
		fmt.Printf("%s: %d instructions, %d sources (%.2f%%)\n",
			name, s.TotalInsts, s.SourceInsts, s.ExtPct)
		fmt.Printf("sites: %d (%d SMILE, %d trap entries, %d trap exits), %d upgrade sites\n",
			s.Sites, s.SmileEntries, s.TrapEntries, s.TrapExits, s.UpgradeSites)
		fmt.Printf("dead register not found: %d (traditional liveness: %d)\n",
			s.DeadRegFailShifted, s.DeadRegFailTraditional)
		fmt.Printf("target section: %d bytes (%d block instructions, %d padding)\n",
			s.TargetBytes, s.BlockInsts, s.PaddingBytes)
		if s.Resolve != nil {
			fmt.Printf("resolved: %d sites, %d targets; %d recovered instructions, %d pre-materialized sites (%d runtime rewrites avoided)\n",
				s.ResolvedSites, s.ResolvedTargets, s.RecoveredInsts,
				s.PrematerializedSites, s.AvoidedRewrites)
		}
	}
}

func usage(msg string) {
	if msg != "" {
		fmt.Fprintln(os.Stderr, "chimera-rewrite:", msg)
	}
	fmt.Fprintln(os.Stderr, "usage: chimera-rewrite -target ISA -method M -o out.chim in.chim")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chimera-rewrite:", err)
	os.Exit(1)
}
