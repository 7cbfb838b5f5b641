// chimera-fuzz drives the differential fuzzing and rewriter-soundness
// oracle: seeded random RV64GC(V) programs are generated, assembled, and
// checked along four axes — interpreter vs. block engine, original vs.
// rewritten images (every rewriter configuration), the resolver's
// exhaustive-site claims vs. dynamically taken indirect targets, and
// fault-and-migrate scheduling vs. a single-core reference. Divergences
// are emitted as JSON reports carrying the spec and both execution
// traces; -minimize delta-debugs each diverging spec down to a small
// reproducer.
//
// Usage:
//
//	chimera-fuzz -n 500                        # seeds 0..499, all axes
//	chimera-fuzz -seed 1000 -n 200 -axes rewriters
//	chimera-fuzz -minimize -o report.json      # minimize and save reports
//	chimera-fuzz -corpus internal/fuzz/testdata/corpus
//	chimera-fuzz -minimize -save-corpus internal/fuzz/testdata/corpus
//
// Campaign mode fuzzes one guest binary with the coverage-guided engine
// (internal/fuzzsvc) instead of generating spec programs: the guest reads
// its test case via read(2), edge coverage and cmp-operand logging guide
// the mutation loop, and crashes are triaged to minimal reproducers.
//
//	chimera-fuzz -campaign demo -campaign-expect-crash
//	chimera-fuzz -campaign prog.img -campaign-execs 100000 -campaign-seed 7
//
// Exit status: 0 when every seed passes, 1 on any divergence (or, with
// -campaign-expect-crash, when the campaign found no crash), 2 on usage
// or I/O errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/eurosys26p57/chimera/internal/fuzz"
)

func main() {
	n := flag.Int("n", 500, "number of seeds to run")
	seed := flag.Int64("seed", 0, "first seed")
	axesFlag := flag.String("axes", "", "comma-separated axes to check: engines,rewriters,resolve,migration (default all)")
	minimize := flag.Bool("minimize", false, "delta-debug each diverging spec to a minimal reproducer")
	corpus := flag.String("corpus", "", "run spec files from this directory instead of generating")
	saveCorpus := flag.String("save-corpus", "", "save each diverging spec (minimized if -minimize) into this corpus directory, deduplicated by content hash")
	out := flag.String("o", "", "write JSON divergence reports to this file (default stdout)")
	maxFuncs := flag.Int("max-funcs", fuzz.DefaultConfig().MaxFuncs, "max functions per program")
	maxSteps := flag.Int("max-steps", fuzz.DefaultConfig().MaxSteps, "max steps per function")
	traceThreshold := flag.Uint("trace-threshold", uint(fuzz.EngineTraceThreshold),
		"trace-tier promotion threshold for block-engine harts (0 disables the tier)")
	verbose := flag.Bool("v", false, "log every seed")
	campaign := flag.String("campaign", "", `coverage-guided campaign mode: "demo" (the built-in seeded-bug guest) or a path to an image in the obj wire format`)
	campaignExecs := flag.Uint64("campaign-execs", 50_000, "campaign execution budget")
	campaignSeed := flag.Int64("campaign-seed", 1, "campaign PRNG seed (campaigns are deterministic per seed)")
	campaignBudget := flag.Uint64("campaign-budget", 1_000_000, "per-execution instruction budget (past it, the exec is a hang)")
	campaignInput := flag.Int("campaign-input", 256, "max generated input length in bytes")
	campaignExpectCrash := flag.Bool("campaign-expect-crash", false, "exit 1 unless the campaign finds at least one crash (CI gate); also stops at the first triaged crash")
	campaignOut := flag.String("campaign-o", "", "write the campaign snapshot JSON to this file (default stdout)")
	flag.Parse()
	fuzz.EngineTraceThreshold = uint32(*traceThreshold)

	if *campaign != "" {
		runCampaign(campaignFlags{
			target:      *campaign,
			execs:       *campaignExecs,
			seed:        *campaignSeed,
			budget:      *campaignBudget,
			maxInput:    *campaignInput,
			expectCrash: *campaignExpectCrash,
			out:         *campaignOut,
		})
		return
	}

	var axes []string
	if *axesFlag != "" {
		axes = strings.Split(*axesFlag, ",")
	}
	cfg := fuzz.DefaultConfig()
	cfg.MaxFuncs = *maxFuncs
	cfg.MaxSteps = *maxSteps

	var divergences []*fuzz.Divergence
	checked := 0
	check := func(label string, s fuzz.Spec) {
		checked++
		d, err := s.Check(axes)
		if err != nil {
			fatal(err)
		}
		if d == nil {
			if *verbose {
				fmt.Fprintf(os.Stderr, "ok   %s\n", label)
			}
			return
		}
		fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", label, d)
		if *minimize {
			min := fuzz.Minimize(s, func(c fuzz.Spec) bool {
				cd, cerr := c.Check(axes)
				return cerr == nil && cd != nil && cd.Axis == d.Axis
			})
			if md, merr := min.Check(axes); merr == nil && md != nil {
				n, _ := min.BodyInsts()
				fmt.Fprintf(os.Stderr, "     minimized to %d body insts\n", n)
				d = md
			}
		}
		divergences = append(divergences, d)
		if *saveCorpus != "" {
			path, added, err := fuzz.SaveCorpusSpec(*saveCorpus, *d.Spec)
			if err != nil {
				fatal(err)
			}
			if added {
				fmt.Fprintf(os.Stderr, "     saved reproducer to %s\n", path)
			} else {
				fmt.Fprintf(os.Stderr, "     duplicate of existing reproducer %s\n", path)
			}
		}
	}

	if *corpus != "" {
		files, err := filepath.Glob(filepath.Join(*corpus, "*.json"))
		if err != nil {
			fatal(err)
		}
		if len(files) == 0 {
			fatal(fmt.Errorf("no *.json specs under %s", *corpus))
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				fatal(err)
			}
			var s fuzz.Spec
			if err := json.Unmarshal(data, &s); err != nil {
				fatal(fmt.Errorf("%s: %w", f, err))
			}
			check(filepath.Base(f), s)
		}
	} else {
		for i := 0; i < *n; i++ {
			sd := *seed + int64(i)
			check(fmt.Sprintf("seed %d", sd), fuzz.Generate(sd, cfg))
		}
	}

	fmt.Fprintf(os.Stderr, "%d checked, %d divergence(s)\n", checked, len(divergences))
	if len(divergences) > 0 {
		enc, err := json.MarshalIndent(divergences, "", "  ")
		if err != nil {
			fatal(err)
		}
		enc = append(enc, '\n')
		if *out != "" {
			if err := os.WriteFile(*out, enc, 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "reports written to %s\n", *out)
		} else {
			os.Stdout.Write(enc)
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chimera-fuzz:", err)
	os.Exit(2)
}
