// chimera-run loads one or more image variants as a process and executes
// it on a simulated core, servicing CHBP's runtime mechanisms (fault
// recovery, trap trampolines, runtime rewriting).
//
// Usage:
//
//	chimera-run prog.chim                      # run on a core matching the image
//	chimera-run -isa rv64gc prog.gc.chim       # run on a base core
//	chimera-run -isa rv64gc -with prog.chim prog.gc.chim
//	                                           # load both variants as MMViews
//	chimera-run -profile prog.chim             # symbolized hot-block profile
//	chimera-run -profile -folded p.folded prog.chim
//	                                           # + flamegraph folded stacks
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/instrument"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/telemetry"
)

func main() {
	isaFlag := flag.String("isa", "", "core ISA to run on (default: the image's)")
	with := flag.String("with", "", "additional variant image to load as a sibling MMView")
	verbose := flag.Bool("v", false, "print kernel counters")
	stats := flag.Bool("stats", false, "print emulator throughput and block/trace-cache statistics")
	traceThreshold := flag.Uint("trace-threshold", uint(emu.DefaultTraceThreshold),
		"block dispatch count that promotes a hot chain into a superblock trace (0 disables the trace tier)")
	profile := flag.Bool("profile", false, "profile the guest: print hot basic blocks (symbolized) and folded stacks")
	folded := flag.String("folded", "", "with -profile, also write flamegraph folded-stack lines to this file")
	top := flag.Int("top", 10, "with -profile, number of hot blocks to print")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: chimera-run [-isa rv64gc] [-with other.chim] prog.chim")
		os.Exit(2)
	}
	img, err := readImage(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	variants := []kernel.Variant{}
	v, err := kernel.VariantFromImage(img)
	if err != nil {
		fatal(err)
	}
	variants = append(variants, v)
	if *with != "" {
		other, err := readImage(*with)
		if err != nil {
			fatal(err)
		}
		ov, err := kernel.VariantFromImage(other)
		if err != nil {
			fatal(err)
		}
		variants = append(variants, ov)
	}
	isa := img.ISA
	if *isaFlag != "" {
		isa, err = riscv.ParseISA(*isaFlag)
		if err != nil {
			fatal(err)
		}
	}
	p, err := kernel.NewProcess(img.Name, variants)
	if err != nil {
		fatal(err)
	}
	if err := p.MigrateTo(isa); err != nil {
		fatal(err)
	}
	p.CPU.TraceThreshold = uint32(*traceThreshold)
	if *profile {
		p.Hooks().Prof = instrument.NewProfile()
		p.CPU.RefreshHooks()
	}

	startAt := time.Now()
	total, st, err := p.RunToExit(context.Background(), 10_000_000)
	if err != nil {
		fatal(err)
	}
	if st == kernel.StatusNeedMigration {
		fatal(fmt.Errorf("image needs a core with more extensions than %v", isa))
	}
	wall := time.Since(startAt)
	os.Stdout.Write(p.Output)
	fmt.Printf("[%s on %v: exit %d, %d cycles (%.3fms at %.1fGHz), %d instructions]\n",
		img.Name, isa, p.ExitCode, total, emu.Seconds(total)*1e3, emu.CPUHz/1e9, p.CPU.Instret)
	if *verbose {
		c := p.Counters
		fmt.Printf("[faults recovered: %d, traps: %d, checks: %d, runtime rewrites: %d, syscalls: %d]\n",
			c.FaultRecoveries, c.Traps, c.Checks, c.RuntimeRewrites, c.Syscalls)
	}
	if *stats {
		b := p.CPU.Blocks
		mips := 0.0
		if s := wall.Seconds(); s > 0 {
			mips = float64(p.CPU.Instret) / s / 1e6
		}
		fmt.Printf("[retired: %d insts, %d cycles, %.1f emulated MIPS]\n",
			p.CPU.Instret, p.CPU.Cycles, mips)
		fmt.Printf("[blocks: %d built, %d hits (%.1f%% hit ratio), %d invalidations, %.1f insts/dispatch]\n",
			b.Built, b.Hits, 100*b.HitRatio(), b.Invalidations, b.RetiredPerDispatch())
		fmt.Printf("[traces: %d built, %d hits, %d/%d insts trace-retired, %.1f%% side exits, pic %d/%d hits]\n",
			b.TracesBuilt, b.TraceHits, b.TraceRetired, b.Retired, 100*b.SideExitRate(), b.PICHits, b.PICHits+b.PICMisses)
	}
	if *profile {
		samples, syms := p.Hooks().Prof.Samples(), p.SymTable()
		fmt.Printf("\n[guest profile: %d distinct blocks]\n", len(samples))
		telemetry.WriteTable(os.Stdout, samples, syms, *top)
		if *folded != "" {
			f, err := os.Create(*folded)
			if err != nil {
				fatal(err)
			}
			for _, l := range telemetry.Folded(img.Name, samples, syms) {
				fmt.Fprintln(f, l)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("[folded stacks written to %s]\n", *folded)
		}
	}
	if p.Signal != 0 {
		os.Exit(p.Signal)
	}
}

func readImage(path string) (*obj.Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obj.ReadImage(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chimera-run:", err)
	os.Exit(1)
}
