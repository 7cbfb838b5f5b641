// Package evalmatrix runs every rewriter configuration over every
// adversarial corpus family (internal/corpus) and grades each cell of the
// resulting robustness matrix. Grades are ordered by severity:
//
//	pass     — clean exit, observables match the original run, zero faults
//	degraded — observables match, but the run leaned on runtime machinery
//	           (fault recoveries, runtime rewrites, trap trampolines); the
//	           per-kilo-instruction fault rate is recorded
//	reject   — the rewriter refused the input statically (typed
//	           ErrRewriteReject), or the rewritten binary failed CLOSED at
//	           run time: a deterministic signal kill instead of silent
//	           corruption. Refusal is sound; it is never graded wrong.
//	wrong    — silent divergence: a clean exit whose exit code, output, or
//	           final writable-data hash differs from the original, or a
//	           hang past the instruction budget
//	crash    — a panic escaped the rewriter or the simulated run
//
// Everything the matrix grades on — grades, fault rates, simulated-cycle
// overhead, code-size overhead — is deterministic, so a committed baseline
// (testdata/matrix_baseline.json) can gate regressions exactly. Wall-clock
// ns/instruction is measured too but is informational only and never
// baselined.
package evalmatrix

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/eurosys26p57/chimera/internal/corpus"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// Grade is one cell outcome, ordered from best to worst.
type Grade string

const (
	GradePass     Grade = "pass"
	GradeDegraded Grade = "degraded"
	GradeReject   Grade = "reject"
	GradeWrong    Grade = "wrong"
	GradeCrash    Grade = "crash"
)

// Rank orders grades by severity; higher is worse.
func (g Grade) Rank() int {
	switch g {
	case GradePass:
		return 0
	case GradeDegraded:
		return 1
	case GradeReject:
		return 2
	case GradeWrong:
		return 3
	case GradeCrash:
		return 4
	}
	return 5
}

// Config is one rewriter configuration under evaluation: a registry
// config under its matrix name. The "relocate" lineage from the paper is
// represented by the strawman configs: the same relocation pipeline as
// chbp with all-trap entries instead of SMILE.
type Config struct {
	Name string
	rewriters.Config
}

// targetISA is the downgrade-direction core every rewritten binary must
// run on: the corpus is RV64GCV, the target core lacks V.
const targetISA = riscv.RV64GC

// Configs lists every evaluated rewriter configuration, each with and
// without resolver assistance.
func Configs() []Config {
	return []Config{
		{"chbp", rewriters.Config{Method: "chbp", Target: targetISA}},
		{"chbp-resolve", rewriters.Config{Method: "chbp", Target: targetISA, Resolve: true}},
		{"strawman", rewriters.Config{Method: "strawman", Target: targetISA}},
		{"strawman-resolve", rewriters.Config{Method: "strawman", Target: targetISA, Resolve: true}},
		{"safer", rewriters.Config{Method: "safer", Target: targetISA}},
		{"safer-resolve", rewriters.Config{Method: "safer", Target: targetISA, Resolve: true}},
		{"armore", rewriters.Config{Method: "armore", Target: targetISA}},
		{"armore-resolve", rewriters.Config{Method: "armore", Target: targetISA, Resolve: true}},
	}
}

// ConfigByName looks a configuration up.
func ConfigByName(name string) (Config, bool) {
	for _, c := range Configs() {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}

// Cell is one (family, config) matrix entry aggregated over seeds.
type Cell struct {
	Family string `json:"family"`
	Config string `json:"config"`
	// Grade is the WORST per-seed grade — a family passes a config only if
	// every seed does.
	Grade Grade `json:"grade"`
	// Grades counts per-seed outcomes, e.g. {"pass": 3, "degraded": 1}.
	Grades map[Grade]int `json:"grades"`
	Seeds  int           `json:"seeds"`
	// FaultRate is the mean runtime-assist rate (fault recoveries + runtime
	// rewrites + traps) per thousand retired instructions across seeds that
	// actually ran.
	FaultRate float64 `json:"fault_rate"`
	// CycleOverhead is the mean relative simulated-cycle overhead vs. the
	// original run (CPU cycles + kernel service cycles), e.g. 0.18 = +18%.
	CycleOverhead float64 `json:"cycle_overhead"`
	// SizeOverhead is the mean relative executable-byte overhead vs. the
	// original image.
	SizeOverhead float64 `json:"size_overhead"`
	// NsPerInst is mean wall-clock nanoseconds per retired instruction for
	// the rewritten runs. Informational only: never baselined.
	NsPerInst float64 `json:"ns_per_inst,omitempty"`
	// Detail carries the first non-pass explanation (reject error text,
	// divergence description, panic value).
	Detail string `json:"detail,omitempty"`
}

// ConfigSummary distills one configuration's row for bench output.
type ConfigSummary struct {
	Config string `json:"config"`
	// PassRate counts pass cells over all cells; DegradedRate counts
	// degraded cells. pass+degraded is the "correct" rate.
	PassRate     float64 `json:"pass_rate"`
	DegradedRate float64 `json:"degraded_rate"`
	RejectRate   float64 `json:"reject_rate"`
	WrongCells   int     `json:"wrong_cells"`
	CrashCells   int     `json:"crash_cells"`
	// Mean overheads over cells where the rewritten binary ran.
	MeanSizeOverhead  float64 `json:"mean_size_overhead"`
	MeanCycleOverhead float64 `json:"mean_cycle_overhead"`
}

// Matrix is the full evaluation result.
type Matrix struct {
	Seeds          []int64         `json:"seeds"`
	TraceThreshold uint32          `json:"trace_threshold"`
	Families       []string        `json:"families"`
	Configs        []string        `json:"configs"`
	Cells          []Cell          `json:"cells"`
	Summaries      []ConfigSummary `json:"summaries"`
}

// Cell returns the (family, config) cell, if present.
func (m *Matrix) Cell(family, config string) (Cell, bool) {
	for _, c := range m.Cells {
		if c.Family == family && c.Config == config {
			return c, true
		}
	}
	return Cell{}, false
}

// Params configures a matrix run.
type Params struct {
	// Families to evaluate; nil means every corpus family.
	Families []string
	// Configs to evaluate; nil means every rewriter configuration.
	Configs []string
	// Seeds per family; each family is built at seeds Seed..Seed+Seeds-1.
	Seeds int
	Seed  int64
	// TraceThreshold is the block-engine trace-tier promotion threshold; 0
	// means DefaultTraceThreshold.
	TraceThreshold uint32
	// Progress, when non-nil, receives one line per completed cell.
	Progress func(format string, args ...any)
}

// DefaultTraceThreshold keeps the trace tier hot on corpus-sized programs,
// so perf deltas include superblock behavior (same rationale as the fuzz
// oracles' aggressive threshold).
const DefaultTraceThreshold = 16

// runOutcome is one process run's observables.
type runOutcome struct {
	exitCode uint64
	output   string
	dataHash uint64
	instret  uint64
	cycles   uint64 // CPU + kernel service cycles
	faults   uint64 // fault recoveries + runtime rewrites + traps
	hang     bool
	killed   bool
	wallNs   int64
	simErr   error
}

// runVariant loads and drives one variant to completion under the budget
// on a core with exactly coreISA — rewritten binaries run on the
// downgrade-target core, so leftover untranslated instructions fault
// instead of being silently absorbed.
func runVariant(v kernel.Variant, name string, coreISA riscv.Ext, orig *obj.Image, budget uint64, traceThreshold uint32) *runOutcome {
	p, err := kernel.NewProcess(name, []kernel.Variant{v})
	if err != nil {
		return &runOutcome{simErr: err}
	}
	p.CPU.ISA = coreISA
	p.CPU.TraceThreshold = traceThreshold
	p.CPU.MaxInstret = budget
	start := time.Now()
	_, st, err := p.RunToExit(context.Background(), 100_000)
	return &runOutcome{
		wallNs:   time.Since(start).Nanoseconds(),
		exitCode: p.ExitCode,
		output:   string(p.Output),
		dataHash: writableHash(p, orig),
		instret:  p.CPU.Instret,
		cycles:   p.CPU.Cycles + p.Counters.KernelCycles,
		faults:   p.Counters.FaultRecoveries + p.Counters.RuntimeRewrites + p.Counters.Traps,
		hang:     st == kernel.StatusBudget,
		killed:   p.Signal != 0,
		simErr:   err,
	}
}

// writableHash FNV-1a-hashes the final contents of the original image's
// writable sections — the cross-variant observable (rewriters preserve
// data placement).
func writableHash(p *kernel.Process, orig *obj.Image) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range orig.Sections {
		if s.Perm&obj.PermW == 0 || len(s.Data) == 0 {
			continue
		}
		buf := make([]byte, len(s.Data))
		if _, ok := p.CPU.Mem.Read(s.Addr, buf); !ok {
			continue
		}
		for _, b := range buf {
			h ^= uint64(b)
			h *= 1099511628211
		}
	}
	return h
}

// seedResult is one (family, config, seed) evaluation.
type seedResult struct {
	grade         Grade
	faultRate     float64
	cycleOverhead float64
	sizeOverhead  float64
	nsPerInst     float64
	ran           bool // the rewritten binary executed (pass/degraded/wrong-dynamic)
	detail        string
}

// evalSeed grades one rewriter configuration against one corpus program.
// The returned grade can never be silently lost to a panic: rewriter entry
// points recover into ErrRewriteReject, and anything that still escapes —
// rewriter or simulator — is caught here and graded crash.
func evalSeed(cfg Config, prog *corpus.Program, ref *runOutcome, traceThreshold uint32) (res seedResult) {
	defer func() {
		if r := recover(); r != nil {
			res = seedResult{grade: GradeCrash, detail: fmt.Sprintf("panic: %v", r)}
		}
	}()
	rw, err := rewriters.Rewrite(prog.Image.Clone(), cfg.Config)
	if err != nil {
		detail := err.Error()
		if !errors.Is(err, rewriters.ErrRewriteReject) {
			detail = "untyped rewrite error: " + detail
		}
		return seedResult{grade: GradeReject, detail: detail}
	}
	v := rw.Variant()
	out := runVariant(v, prog.Image.Name+"+"+cfg.Name, targetISA, prog.Image, prog.Budget, traceThreshold)
	if out.simErr != nil {
		return seedResult{grade: GradeCrash, detail: "simulator: " + out.simErr.Error()}
	}
	res = seedResult{ran: true}
	if out.instret > 0 {
		res.faultRate = float64(out.faults) * 1000 / float64(out.instret)
		res.nsPerInst = float64(out.wallNs) / float64(out.instret)
	}
	if ref.cycles > 0 {
		res.cycleOverhead = float64(out.cycles)/float64(ref.cycles) - 1
	}
	if oc := prog.Image.CodeSize(); oc > 0 && v.Image != nil {
		res.sizeOverhead = float64(v.Image.CodeSize())/float64(oc) - 1
	}
	switch {
	case out.hang:
		res.grade = GradeWrong
		res.detail = fmt.Sprintf("hang: no exit within %d retired instructions", prog.Budget)
	case out.killed:
		// Fail-closed: the binary refused at run time instead of corrupting
		// state. Graded with the static refusals, not with silent wrongness.
		res.grade = GradeReject
		res.ran = false
		res.detail = fmt.Sprintf("dynamic reject: killed with exit code %d", out.exitCode)
	case out.exitCode != ref.exitCode || out.output != ref.output || out.dataHash != ref.dataHash:
		res.grade = GradeWrong
		res.detail = fmt.Sprintf("divergence: exit %d/%d output %dB/%dB datahash %#x/%#x",
			out.exitCode, ref.exitCode, len(out.output), len(ref.output), out.dataHash, ref.dataHash)
	case out.faults > 0:
		res.grade = GradeDegraded
		res.detail = fmt.Sprintf("%d runtime assists over %d instructions", out.faults, out.instret)
	default:
		res.grade = GradePass
	}
	return res
}

// Run evaluates the matrix.
func Run(p Params) (*Matrix, error) {
	if p.Seeds <= 0 {
		p.Seeds = 1
	}
	if p.TraceThreshold == 0 {
		p.TraceThreshold = DefaultTraceThreshold
	}
	families := p.Families
	if families == nil {
		for _, f := range corpus.Families() {
			families = append(families, f.Name)
		}
	}
	configs := p.Configs
	if configs == nil {
		for _, c := range Configs() {
			configs = append(configs, c.Name)
		}
	}
	progress := p.Progress
	if progress == nil {
		progress = func(string, ...any) {}
	}
	m := &Matrix{TraceThreshold: p.TraceThreshold, Families: families, Configs: configs}
	for i := 0; i < p.Seeds; i++ {
		m.Seeds = append(m.Seeds, p.Seed+int64(i))
	}
	for _, fam := range families {
		// Build each seed's program and reference run once, shared by every
		// configuration's cell.
		progs := make([]*corpus.Program, 0, p.Seeds)
		refs := make([]*runOutcome, 0, p.Seeds)
		for _, seed := range m.Seeds {
			prog, err := corpus.Build(fam, seed)
			if err != nil {
				return nil, fmt.Errorf("evalmatrix: %s seed %d: %w", fam, seed, err)
			}
			v, err := kernel.VariantFromImage(prog.Image)
			if err != nil {
				return nil, fmt.Errorf("evalmatrix: %s seed %d: %w", fam, seed, err)
			}
			ref := runVariant(v, prog.Image.Name, riscv.RV64GCV, prog.Image, prog.Budget, p.TraceThreshold)
			if ref.simErr != nil || ref.hang || ref.killed {
				return nil, fmt.Errorf("evalmatrix: %s seed %d: reference run unusable (err=%v hang=%v exit=%d)",
					fam, seed, ref.simErr, ref.hang, ref.exitCode)
			}
			progs = append(progs, prog)
			refs = append(refs, ref)
		}
		for _, cfgName := range configs {
			cfg, ok := ConfigByName(cfgName)
			if !ok {
				return nil, fmt.Errorf("evalmatrix: unknown config %q", cfgName)
			}
			cell := Cell{Family: fam, Config: cfgName, Grades: map[Grade]int{}, Seeds: p.Seeds}
			var ranCells, worst int
			for i := range progs {
				r := evalSeed(cfg, progs[i], refs[i], p.TraceThreshold)
				cell.Grades[r.grade]++
				if r.grade.Rank() > worst {
					worst = r.grade.Rank()
				}
				if r.grade != GradePass && cell.Detail == "" {
					cell.Detail = fmt.Sprintf("seed %d: %s", m.Seeds[i], r.detail)
				}
				if r.ran {
					ranCells++
					cell.FaultRate += r.faultRate
					cell.CycleOverhead += r.cycleOverhead
					cell.SizeOverhead += r.sizeOverhead
					cell.NsPerInst += r.nsPerInst
				}
			}
			for _, g := range []Grade{GradeCrash, GradeWrong, GradeReject, GradeDegraded, GradePass} {
				if g.Rank() == worst {
					cell.Grade = g
					break
				}
			}
			if ranCells > 0 {
				cell.FaultRate /= float64(ranCells)
				cell.CycleOverhead /= float64(ranCells)
				cell.SizeOverhead /= float64(ranCells)
				cell.NsPerInst /= float64(ranCells)
			}
			m.Cells = append(m.Cells, cell)
			progress("%-14s %-17s %s", fam, cfgName, cell.Grade)
		}
	}
	m.summarize()
	return m, nil
}

// summarize recomputes the per-config summaries from the cells.
func (m *Matrix) summarize() {
	m.Summaries = nil
	for _, cfgName := range m.Configs {
		s := ConfigSummary{Config: cfgName}
		var cells, ran int
		for _, c := range m.Cells {
			if c.Config != cfgName {
				continue
			}
			cells++
			switch c.Grade {
			case GradePass:
				s.PassRate++
			case GradeDegraded:
				s.DegradedRate++
			case GradeReject:
				s.RejectRate++
			case GradeWrong:
				s.WrongCells++
			case GradeCrash:
				s.CrashCells++
			}
			if c.Grade == GradePass || c.Grade == GradeDegraded {
				ran++
				s.MeanSizeOverhead += c.SizeOverhead
				s.MeanCycleOverhead += c.CycleOverhead
			}
		}
		if cells > 0 {
			s.PassRate /= float64(cells)
			s.DegradedRate /= float64(cells)
			s.RejectRate /= float64(cells)
		}
		if ran > 0 {
			s.MeanSizeOverhead /= float64(ran)
			s.MeanCycleOverhead /= float64(ran)
		}
		m.Summaries = append(m.Summaries, s)
	}
	sort.SliceStable(m.Cells, func(i, j int) bool {
		if m.Cells[i].Family != m.Cells[j].Family {
			return m.Cells[i].Family < m.Cells[j].Family
		}
		return m.Cells[i].Config < m.Cells[j].Config
	})
}
