package fuzz

import (
	"context"
	"fmt"

	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// Oracle axis names.
const (
	AxisEngines   = "engines"   // interpreter vs. block engine, lockstep
	AxisRewriters = "rewriters" // original vs. rewritten images, end state
	AxisResolve   = "resolve"   // static exhaustive claims vs. dynamic targets
	AxisMigration = "migration" // fault-and-migrate vs. single-core reference
)

// TraceEntry is one retired instruction (or kernel event) in an execution
// trace attached to a divergence report.
type TraceEntry struct {
	PC      uint64 `json:"pc"`
	Instret uint64 `json:"instret"`
	Inst    string `json:"inst"`
}

// ExecReport is the observable outcome of one execution, attached to both
// sides of a divergence.
type ExecReport struct {
	Label    string       `json:"label"`
	Exited   bool         `json:"exited"`
	ExitCode uint64       `json:"exitcode"`
	Output   string       `json:"output,omitempty"`
	PC       uint64       `json:"pc"`
	Instret  uint64       `json:"instret"`
	Cycles   uint64       `json:"cycles"`
	DataHash uint64       `json:"datahash"`
	Hang     bool         `json:"hang,omitempty"`     // exceeded the spec budget
	SimError string       `json:"simerror,omitempty"` // simulator-level failure
	Trace    []TraceEntry `json:"trace,omitempty"`    // tail of the execution
}

// Divergence is one oracle finding: two executions of the same spec that
// should agree but do not. It serializes to JSON for chimera-fuzz reports.
type Divergence struct {
	Axis   string      `json:"axis"`
	Seed   int64       `json:"seed"`
	Detail string      `json:"detail"`
	Spec   *Spec       `json:"spec"`
	A      *ExecReport `json:"a,omitempty"`
	B      *ExecReport `json:"b,omitempty"`
}

func (d *Divergence) String() string {
	return fmt.Sprintf("[%s] seed=%d: %s", d.Axis, d.Seed, d.Detail)
}

// traceLen bounds the retained execution-trace tail in divergence reports.
const traceLen = 48

// runSlice is the scheduling quantum for non-lockstep oracle runs.
const runSlice = 100_000

// lockSlice is the lockstep comparison quantum: a prime, so slice
// boundaries drift across loop iterations instead of resonating with them.
const lockSlice = 1021

// EngineTraceThreshold is the trace-tier promotion threshold applied to
// every block-engine hart the oracles run (interpreter harts never use the
// tier). Deliberately aggressive — generated programs are short, so the
// production threshold would leave superblocks cold; at 2 nearly every
// repeated block promotes and guards/side-exits/seam flushes get fuzzed.
// chimera-fuzz overrides it via -trace-threshold.
var EngineTraceThreshold uint32 = 2

// newProc loads a single variant and pins the hart to the given core ISA.
func newProc(v kernel.Variant, coreISA riscv.Ext, interp bool) (*kernel.Process, error) {
	p, err := kernel.NewProcess(v.Image.Name, []kernel.Variant{v})
	if err != nil {
		return nil, err
	}
	p.CPU.ISA = coreISA
	p.CPU.Interp = interp
	if interp {
		p.CPU.TraceThreshold = 0
	} else {
		p.CPU.TraceThreshold = EngineTraceThreshold
	}
	return p, nil
}

// runReport drives a process to exit under the spec's instruction budget
// and snapshots the outcome. Exhausting the budget is a hang: generated
// programs terminate by construction, so only a broken rewrite or engine
// can loop.
func runReport(label string, p *kernel.Process, orig *obj.Image, budget uint64) *ExecReport {
	p.CPU.MaxInstret = budget
	_, st, err := p.RunToExit(context.Background(), runSlice)
	if err == nil && st == kernel.StatusNeedMigration {
		err = fmt.Errorf("unexpected migration request at %#x", p.CPU.PC)
	}
	return report(label, p, orig, st == kernel.StatusBudget, err)
}

// report snapshots a process into an ExecReport. The data hash always walks
// the ORIGINAL image's writable sections (rewriters preserve data
// placement), so hashes are comparable across variants.
func report(label string, p *kernel.Process, orig *obj.Image, hang bool, simErr error) *ExecReport {
	r := &ExecReport{
		Label:    label,
		Exited:   p.Exited,
		ExitCode: p.ExitCode,
		Output:   string(p.Output),
		PC:       p.CPU.PC,
		Instret:  p.CPU.Instret,
		Cycles:   p.CPU.Cycles,
		DataHash: p.DataHash(orig),
		Hang:     hang,
	}
	if simErr != nil {
		r.SimError = simErr.Error()
	}
	return r
}

// capture re-runs a fresh process one instruction at a time and returns the
// trace tail ending at the divergence point.
func capture(mk func() (*kernel.Process, error), until uint64, budget uint64) []TraceEntry {
	p, err := mk()
	if err != nil {
		return nil
	}
	var ring []TraceEntry
	push := func(e TraceEntry) {
		if len(ring) == traceLen {
			copy(ring, ring[1:])
			ring = ring[:traceLen-1]
		}
		ring = append(ring, e)
	}
	for steps := uint64(0); !p.Exited && p.CPU.Instret <= until && steps < budget*4+1000; steps++ {
		pc := p.CPU.PC
		before := p.CPU.Instret
		if _, st, err := p.Run(1); err != nil || st == kernel.StatusNeedMigration {
			push(TraceEntry{PC: pc, Instret: p.CPU.Instret, Inst: "(simulator stop)"})
			break
		}
		if p.CPU.Instret == before {
			// A fault, trap, or signal was serviced without retiring.
			push(TraceEntry{PC: pc, Instret: p.CPU.Instret, Inst: "(kernel event)"})
			continue
		}
		push(TraceEntry{PC: pc, Instret: p.CPU.Instret, Inst: p.CPU.LastInst.String()})
	}
	return ring
}

// stateDiff compares full architectural state plus process observables.
// Empty means identical.
func stateDiff(a, b *kernel.Process) string {
	ca, cb := a.CPU, b.CPU
	switch {
	case a.Exited != b.Exited:
		return fmt.Sprintf("exited %v vs %v", a.Exited, b.Exited)
	case a.ExitCode != b.ExitCode:
		return fmt.Sprintf("exit code %d vs %d", a.ExitCode, b.ExitCode)
	case string(a.Output) != string(b.Output):
		return fmt.Sprintf("output %q vs %q", a.Output, b.Output)
	case ca.PC != cb.PC:
		return fmt.Sprintf("pc %#x vs %#x", ca.PC, cb.PC)
	case ca.Instret != cb.Instret:
		return fmt.Sprintf("instret %d vs %d", ca.Instret, cb.Instret)
	case ca.Cycles != cb.Cycles:
		return fmt.Sprintf("cycles %d vs %d", ca.Cycles, cb.Cycles)
	case ca.VL != cb.VL || ca.VT != cb.VT:
		return fmt.Sprintf("vl/vtype (%d,%#x) vs (%d,%#x)", ca.VL, ca.VT, cb.VL, cb.VT)
	}
	for i := 0; i < 32; i++ {
		if ca.X[i] != cb.X[i] {
			return fmt.Sprintf("x%d %#x vs %#x", i, ca.X[i], cb.X[i])
		}
	}
	for i := 0; i < 32; i++ {
		if ca.F[i] != cb.F[i] {
			return fmt.Sprintf("f%d %#x vs %#x", i, ca.F[i], cb.F[i])
		}
	}
	if ca.V != cb.V {
		return "vector register files differ"
	}
	return ""
}

// DiffEngines is oracle axis A: the per-instruction interpreter, the
// basic-block engine with the trace tier off, and the block engine with the
// trace tier forced hot must all produce bit-identical state trajectories
// on the same image. Compared pairwise at every lockstep slice boundary.
func (s *Spec) DiffEngines() (*Divergence, error) {
	img, budget, err := s.Assemble()
	if err != nil {
		return nil, fmt.Errorf("fuzz: assemble: %w", err)
	}
	v := kernel.Variant{ISA: img.ISA, Image: img}
	isa := img.ISA
	mk := func(interp bool, threshold uint32) func() (*kernel.Process, error) {
		return func() (*kernel.Process, error) {
			p, err := newProc(v, isa, interp)
			if err != nil {
				return nil, err
			}
			p.CPU.TraceThreshold = threshold
			return p, nil
		}
	}
	engines := []struct {
		label string
		make  func() (*kernel.Process, error)
	}{
		{"interpreter", mk(true, 0)},
		{"block-engine", mk(false, 0)},
		{"trace-engine", mk(false, EngineTraceThreshold)},
	}
	procs := make([]*kernel.Process, len(engines))
	for i, e := range engines {
		if procs[i], err = e.make(); err != nil {
			return nil, err
		}
	}
	ref := procs[0]
	for {
		done := true
		for _, p := range procs {
			if !p.Exited && p.CPU.Instret < budget {
				done = false
			}
		}
		if done {
			break
		}
		for i, p := range procs {
			if _, _, err := p.Run(lockSlice); err != nil {
				return nil, fmt.Errorf("fuzz: %s: %w", engines[i].label, err)
			}
		}
		for i := 1; i < len(procs); i++ {
			if diff := stateDiff(ref, procs[i]); diff != "" {
				until := ref.CPU.Instret
				if procs[i].CPU.Instret > until {
					until = procs[i].CPU.Instret
				}
				ra := report(engines[0].label, ref, img, false, nil)
				rb := report(engines[i].label, procs[i], img, false, nil)
				ra.Trace = capture(engines[0].make, until, budget)
				rb.Trace = capture(engines[i].make, until, budget)
				return &Divergence{
					Axis: AxisEngines, Seed: s.Seed, Spec: s,
					Detail: fmt.Sprintf("%s state divergence: %s", engines[i].label, diff),
					A:      ra, B: rb,
				}, nil
			}
		}
	}
	for i, p := range procs {
		if !p.Exited {
			return &Divergence{
				Axis: AxisEngines, Seed: s.Seed, Spec: s,
				Detail: fmt.Sprintf("budget %d exceeded (%s hang)", budget, engines[i].label),
				A:      report(engines[0].label, ref, img, !ref.Exited, nil),
				B:      report(engines[i].label, p, img, true, nil),
			}, nil
		}
	}
	return nil, nil
}

// candidate is one rewritten execution configuration for axis B.
type candidate struct {
	name    string
	variant kernel.Variant
	coreISA riscv.Ext
}

// rewriteCandidates builds every rewriter configuration the spec can
// exercise: downgrade rewrites of vector images for base cores (CHBP with
// SMILE, trap-entry, and general-register trampolines; Safer and ARMore
// regeneration baselines; each registry method also resolver-seeded, so
// statically patched indirect paths and Safer's resolved-target fast path
// get differential coverage too) and an upgrade rewrite toward a richer
// ISA. A rewriter returning an error is itself reported as a divergence by
// the caller, so failures come back as (nil variant, error) pairs.
func rewriteCandidates(img *obj.Image, vector bool) []struct {
	c   candidate
	err error
} {
	var out []struct {
		c   candidate
		err error
	}
	add := func(name string, core riscv.Ext, v kernel.Variant, err error) {
		out = append(out, struct {
			c   candidate
			err error
		}{candidate{name, v, core}, err})
	}
	rewrite := func(name string, cfg rewriters.Config) {
		res, err := rewriters.Rewrite(img, cfg)
		if err != nil {
			add(name, cfg.Target, kernel.Variant{}, err)
			return
		}
		add(name, cfg.Target, kernel.Variant{ISA: res.Image.ISA, Image: res.Image}, nil)
	}
	if vector {
		base := riscv.RV64GC
		rewrite("chbp-smile", rewriters.Config{Method: "chbp", Target: base})
		rewrite("chbp-trapentry", rewriters.Config{Method: "strawman", Target: base})
		// General-register trampolines are a chbp-only ablation, not a
		// registry method.
		if res, err := chbp.Rewrite(img, chbp.Options{TargetISA: base, Trampoline: chbp.GeneralReg}); err != nil {
			add("chbp-generalreg", base, kernel.Variant{}, err)
		} else {
			add("chbp-generalreg", base, kernel.Variant{ISA: res.Image.ISA, Image: res.Image}, nil)
		}
		rewrite("chbp-resolve", rewriters.Config{Method: "chbp", Target: base, Resolve: true})
		rewrite("safer", rewriters.Config{Method: "safer", Target: base})
		rewrite("safer-resolve", rewriters.Config{Method: "safer", Target: base, Resolve: true})
		rewrite("armore", rewriters.Config{Method: "armore", Target: base})
		rewrite("armore-resolve", rewriters.Config{Method: "armore", Target: base, Resolve: true})
	}
	// Upgrade direction: rewrite toward a richer ISA (idiom vectorization,
	// Zba folding) and run on a core that has it.
	rewrite("chbp-upgrade", rewriters.Config{Method: "chbp", Target: img.ISA | riscv.ExtV | riscv.ExtB})
	return out
}

// DiffRewriters is oracle axis B: every rewriter configuration must
// preserve the program's observable behavior — exit code, output, and final
// writable-data contents — against the original image on a matching core.
func (s *Spec) DiffRewriters() (*Divergence, error) {
	img, budget, err := s.Assemble()
	if err != nil {
		return nil, fmt.Errorf("fuzz: assemble: %w", err)
	}
	v := kernel.Variant{ISA: img.ISA, Image: img}
	ref, err := newProc(v, img.ISA, false)
	if err != nil {
		return nil, err
	}
	rref := runReport("original", ref, img, budget)
	if rref.SimError != "" || rref.Hang {
		return &Divergence{
			Axis: AxisRewriters, Seed: s.Seed, Spec: s,
			Detail: "reference execution did not exit cleanly", A: rref,
		}, nil
	}
	for _, cand := range rewriteCandidates(img, s.Vector) {
		if d, err := s.diffOneRewrite(img, budget, rref, cand.c, cand.err); d != nil || err != nil {
			return d, err
		}
	}
	return nil, nil
}

// CandidateNames lists the axis-B configurations the spec exercises
// (diagnostics for chimera-fuzz -v and tests).
func (s *Spec) CandidateNames() []string {
	var names []string
	img, _, err := s.Assemble()
	if err != nil {
		return nil
	}
	for _, c := range rewriteCandidates(img, s.Vector) {
		names = append(names, c.c.name)
	}
	return names
}

func (s *Spec) diffOneRewrite(orig *obj.Image, budget uint64, rref *ExecReport, c candidate, rwErr error) (*Divergence, error) {
	if rwErr != nil {
		return &Divergence{
			Axis: AxisRewriters, Seed: s.Seed, Spec: s,
			Detail: fmt.Sprintf("%s: rewriter failed: %v", c.name, rwErr),
			A:      rref,
		}, nil
	}
	return diffVariantRun(s, orig, budget, rref, c)
}

// diffVariantRun runs one rewritten candidate and compares end-state
// observables against the reference report. Split out so tests can diff a
// hand-built (e.g. deliberately corrupted) variant directly.
func diffVariantRun(s *Spec, orig *obj.Image, budget uint64, rref *ExecReport, c candidate) (*Divergence, error) {
	p, err := newProc(c.variant, c.coreISA, false)
	if err != nil {
		return nil, fmt.Errorf("fuzz: loading %s: %w", c.name, err)
	}
	rc := runReport(c.name, p, orig, budget)
	var detail string
	switch {
	case rc.SimError != "":
		detail = fmt.Sprintf("%s: simulator error: %s", c.name, rc.SimError)
	case rc.Hang:
		detail = fmt.Sprintf("%s: exceeded budget %d (hang)", c.name, budget)
	case !p.Exited || rc.ExitCode != rref.ExitCode:
		detail = fmt.Sprintf("%s: exit code %d vs original %d", c.name, rc.ExitCode, rref.ExitCode)
	case rc.Output != rref.Output:
		detail = fmt.Sprintf("%s: output diverged", c.name)
	case rc.DataHash != rref.DataHash:
		detail = fmt.Sprintf("%s: final writable-data hash %#x vs original %#x", c.name, rc.DataHash, rref.DataHash)
	default:
		return nil, nil
	}
	rc.Trace = capture(func() (*kernel.Process, error) {
		return newProc(c.variant, c.coreISA, false)
	}, rc.Instret, budget)
	return &Divergence{
		Axis: AxisRewriters, Seed: s.Seed, Spec: s,
		Detail: detail, A: rref, B: rc,
	}, nil
}

// DiffMigration is oracle axis C: a task scheduled under fault-and-migrate
// on a heterogeneous machine (one base, one extension core) must finish in
// the same architectural state as a single-core reference. Faults do not
// retire instructions and FAM keeps a single view, so even Instret and
// Cycles match exactly.
func (s *Spec) DiffMigration() (*Divergence, error) {
	img, budget, err := s.Assemble()
	if err != nil {
		return nil, fmt.Errorf("fuzz: assemble: %w", err)
	}
	v := kernel.Variant{ISA: img.ISA, Image: img}
	ref, err := newProc(v, img.ISA, false)
	if err != nil {
		return nil, err
	}
	rref := runReport("single-core", ref, img, budget)
	if rref.SimError != "" || rref.Hang {
		return &Divergence{
			Axis: AxisMigration, Seed: s.Seed, Spec: s,
			Detail: "reference execution did not exit cleanly", A: rref,
		}, nil
	}

	// Candidate: same binary, scheduled across a base + extension machine.
	// Submitting to the base pool forces vector specs through the
	// illegal-instruction fault and a FAM migration mid-run.
	img2, _, err := s.Assemble()
	if err != nil {
		return nil, err
	}
	v2 := kernel.Variant{ISA: img2.ISA, Image: img2}
	p, err := kernel.NewProcess(img2.Name, []kernel.Variant{v2})
	if err != nil {
		return nil, err
	}
	p.FAM = true
	sched := kernel.NewScheduler(kernel.NewMachine(1, 1))
	task := &kernel.Task{Proc: p, NeedsExt: false}
	sched.Submit(task)
	if _, err := sched.Run(); err != nil {
		return &Divergence{
			Axis: AxisMigration, Seed: s.Seed, Spec: s,
			Detail: fmt.Sprintf("scheduler error: %v", err),
			A:      rref, B: report("fault-and-migrate", p, img2, false, err),
		}, nil
	}
	rc := report("fault-and-migrate", p, img2, false, nil)
	if diff := stateDiff(ref, p); diff != "" {
		return &Divergence{
			Axis: AxisMigration, Seed: s.Seed, Spec: s,
			Detail: "migrated state divergence: " + diff,
			A:      rref, B: rc,
		}, nil
	}
	if rc.DataHash != rref.DataHash {
		return &Divergence{
			Axis: AxisMigration, Seed: s.Seed, Spec: s,
			Detail: fmt.Sprintf("final writable-data hash %#x vs reference %#x", rc.DataHash, rref.DataHash),
			A:      rref, B: rc,
		}, nil
	}
	return nil, nil
}

// Check runs the requested oracle axes in order and returns the first
// divergence. Axes is a subset of {AxisEngines, AxisRewriters,
// AxisMigration}; nil means all three.
func (s *Spec) Check(axes []string) (*Divergence, error) {
	if axes == nil {
		axes = []string{AxisEngines, AxisRewriters, AxisResolve, AxisMigration}
	}
	for _, ax := range axes {
		var d *Divergence
		var err error
		switch ax {
		case AxisEngines:
			d, err = s.DiffEngines()
		case AxisRewriters:
			d, err = s.DiffRewriters()
		case AxisResolve:
			d, err = s.DiffResolve()
		case AxisMigration:
			d, err = s.DiffMigration()
		default:
			return nil, fmt.Errorf("fuzz: unknown axis %q", ax)
		}
		if err != nil || d != nil {
			return d, err
		}
	}
	return nil, nil
}
