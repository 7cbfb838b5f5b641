package kernel

import "github.com/eurosys26p57/chimera/internal/telemetry"

// SchedTelemetry binds the scheduler's observables to a telemetry registry:
// dispatch/steal/migration counts as they happen, plus each completed
// task's per-process kernel counters (faults absorbed, traps, runtime
// rewrites, ...). A nil *SchedTelemetry is valid and records nothing, so
// the scheduler instruments unconditionally.
type SchedTelemetry struct {
	dispatches  *telemetry.Counter
	steals      *telemetry.Counter
	migrations  *telemetry.Counter
	completions *telemetry.Counter
	failures    *telemetry.Counter

	faultRecoveries      *telemetry.Counter
	traps                *telemetry.Counter
	checks               *telemetry.Counter
	runtimeRewrites      *telemetry.Counter
	rewriteFaultsAvoided *telemetry.Counter
	spuriousFaults       *telemetry.Counter
	syscalls             *telemetry.Counter
	signals              *telemetry.Counter
	kernelCycles         *telemetry.Counter
}

// NewSchedTelemetry registers the scheduler and kernel metric families on r.
func NewSchedTelemetry(r *telemetry.Registry) *SchedTelemetry {
	return &SchedTelemetry{
		dispatches:  r.Counter("chimera_sched_dispatches_total", "tasks handed to a worker"),
		steals:      r.Counter("chimera_sched_steals_total", "tasks stolen from another worker's queue"),
		migrations:  r.Counter("chimera_sched_migrations_total", "FAM migrations to the extension pool"),
		completions: r.Counter("chimera_sched_tasks_completed_total", "tasks run to completion"),
		failures:    r.Counter("chimera_sched_tasks_failed_total", "tasks whose process died on a signal"),

		faultRecoveries:      r.Counter("chimera_kernel_fault_recoveries_total", "deterministic faults recovered via tables"),
		traps:                r.Counter("chimera_kernel_traps_total", "trap-based trampoline redirections"),
		checks:               r.Counter("chimera_kernel_checks_total", "indirect-jump pointer checks"),
		runtimeRewrites:      r.Counter("chimera_kernel_runtime_rewrites_total", "unrecognized instructions rewritten at run time"),
		rewriteFaultsAvoided: r.Counter("chimera_kernel_rewrite_faults_avoided_total", "runtime-rewrite faults avoided by resolver pre-materialization"),
		spuriousFaults:       r.Counter("chimera_kernel_spurious_faults_total", "spurious faults re-validated and absorbed"),
		syscalls:             r.Counter("chimera_kernel_syscalls_total", "guest syscalls serviced"),
		signals:              r.Counter("chimera_kernel_signals_total", "signals delivered to guest processes"),
		kernelCycles:         r.Counter("chimera_kernel_cycles_total", "cycles charged for all kernel events"),
	}
}

// RewriteFaultsAvoided reads back the total runtime-rewrite faults the
// resolver's pre-materialized rows avoided across every folded process
// (for JSON views rendered from the same registry, e.g. /stats).
func (t *SchedTelemetry) RewriteFaultsAvoided() uint64 {
	if t == nil {
		return 0
	}
	return t.rewriteFaultsAvoided.Value()
}

func (t *SchedTelemetry) dispatch() {
	if t == nil {
		return
	}
	t.dispatches.Inc()
}

func (t *SchedTelemetry) steal() {
	if t == nil {
		return
	}
	t.steals.Inc()
}

func (t *SchedTelemetry) migrate() {
	if t == nil {
		return
	}
	t.migrations.Inc()
}

// taskDone folds one completed task's kernel counters into the registry.
func (t *SchedTelemetry) taskDone(failed bool, c Counters) {
	if t == nil {
		return
	}
	t.completions.Inc()
	if failed {
		t.failures.Inc()
	}
	t.AddCounters(c)
}

// AddCounters folds one process's kernel counters into the registry
// (exported so callers that run processes outside the scheduler — e.g. the
// service's /run path — share the same metric families).
func (t *SchedTelemetry) AddCounters(c Counters) {
	if t == nil {
		return
	}
	t.faultRecoveries.Add(c.FaultRecoveries)
	t.traps.Add(c.Traps)
	t.checks.Add(c.Checks)
	t.runtimeRewrites.Add(c.RuntimeRewrites)
	t.rewriteFaultsAvoided.Add(c.RewriteFaultsAvoided)
	t.spuriousFaults.Add(c.SpuriousFaults)
	t.syscalls.Add(c.Syscalls)
	t.signals.Add(c.SignalsTaken)
	t.kernelCycles.Add(c.KernelCycles)
}

// SymTable symbolizes guest pcs (Hooks().Prof samples) against the function
// symbols of every loaded variant image; nil when none has any.
func (p *Process) SymTable() *telemetry.SymTable {
	var syms []telemetry.Sym
	for _, v := range p.views {
		for _, s := range v.img.FuncSymbols() {
			syms = append(syms, telemetry.Sym{Name: s.Name, Addr: s.Addr, Size: s.Size})
		}
	}
	if len(syms) == 0 {
		return nil
	}
	return telemetry.NewSymTable(syms)
}
