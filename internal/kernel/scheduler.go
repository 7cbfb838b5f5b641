package kernel

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// Task is one schedulable job (§6.1's workload items).
type Task struct {
	ID   int
	Proc *Process
	// NeedsExt routes the task to the extension pool first (it contains
	// extension instructions).
	NeedsExt bool

	// Results, filled by the scheduler.
	Done        bool
	CompletedAt uint64 // simulated cycles at completion
	CyclesUsed  uint64
	RanOnExt    bool
	// Accelerated: the task executed a vector-capable binary on an
	// extension core (the Fig. 12 metric).
	Accelerated bool
	// Failed is set when the task's process died on a signal.
	Failed bool
	// Pinned restricts the task to its NeedsExt pool (set after a FAM
	// migration so base workers stop re-stealing it).
	Pinned bool

	availableAt uint64
	// queued guards the scheduling invariant that a task sits in at most
	// one worker queue: set on enqueue, cleared on pop. A violation means
	// the same task would execute twice concurrently (in simulated time),
	// so it is latched as a scheduler error instead of silently corrupting
	// the run.
	queued bool
	// Dispatches counts how many times the scheduler handed this task to a
	// worker (diagnostics for migration-storm tests).
	Dispatches int
}

// Worker is one core's scheduling context.
type Worker struct {
	Core  CoreSpec
	queue []*Task
	// Now is the worker's local clock in cycles; Busy the cycles it spent
	// executing (CPU time).
	Now  uint64
	Busy uint64
}

// Scheduler is the work-stealing heterogeneous scheduler of §6.1: one
// worker per core, a base pool and an extension pool, stealing first within
// the pool and then across pools.
type Scheduler struct {
	Workers []*Worker
	// SliceInstr is the preemption quantum in instructions.
	SliceInstr uint64
	tasks      []*Task
	// invariantErr latches the first scheduling-invariant violation
	// (double-enqueue, reschedule after completion); Run reports it.
	invariantErr error
	// arena is lent to each dispatched task's hart and takes back every
	// translation of a task that will not run again, so the next task
	// builds its blocks and traces into the arrays this one leaves. Tasks
	// run one at a time, so one arena serves them all.
	arena emu.Arena
	// order is Run's per-round copy of Workers sorted by clock, kept so a
	// dispatch round does not allocate.
	order []*Worker
}

// NewScheduler builds a scheduler over the machine's cores.
func NewScheduler(m *Machine) *Scheduler {
	s := &Scheduler{SliceInstr: 200_000}
	for _, c := range m.Cores {
		s.Workers = append(s.Workers, &Worker{Core: c})
	}
	return s
}

// enqueue appends t to w's queue, enforcing the single-queue invariant.
func (s *Scheduler) enqueue(w *Worker, t *Task) {
	if t.queued && s.invariantErr == nil {
		s.invariantErr = fmt.Errorf("kernel: task %d enqueued twice (double-schedule)", t.ID)
		return
	}
	t.queued = true
	w.queue = append(w.queue, t)
}

// Submit queues a task on the least-loaded worker of its preferred pool.
func (s *Scheduler) Submit(t *Task) {
	t.ID = len(s.tasks)
	s.tasks = append(s.tasks, t)
	var best *Worker
	for _, w := range s.Workers {
		if w.Core.IsExt() != t.NeedsExt {
			continue
		}
		if best == nil || len(w.queue) < len(best.queue) {
			best = w
		}
	}
	if best == nil {
		// No core of the preferred class exists; any worker will do.
		best = s.Workers[0]
		for _, w := range s.Workers {
			if len(w.queue) < len(best.queue) {
				best = w
			}
		}
	}
	s.enqueue(best, t)
}

// take pops a runnable task for w: its own queue first, then stealing from
// the same pool, then from the other pool.
func (s *Scheduler) take(w *Worker) *Task {
	pop := func(v *Worker) *Task {
		for i, t := range v.queue {
			if t.availableAt > w.Now {
				continue
			}
			if t.Pinned && w.Core.IsExt() != t.NeedsExt {
				continue
			}
			v.queue = append(v.queue[:i], v.queue[i+1:]...)
			t.queued = false
			return t
		}
		return nil
	}
	if t := pop(w); t != nil {
		return t
	}
	// Steal from the most loaded sibling in the same pool, then other pool.
	for _, samePool := range []bool{true, false} {
		var victim *Worker
		for _, v := range s.Workers {
			if v == w || (v.Core.IsExt() == w.Core.IsExt()) != samePool {
				continue
			}
			if victim == nil || len(v.queue) > len(victim.queue) {
				victim = v
			}
		}
		if victim != nil && len(victim.queue) > 0 {
			if t := pop(victim); t != nil {
				return t
			}
		}
	}
	return nil
}

// pendingAfter returns the earliest availableAt among queued tasks, or 0.
func (s *Scheduler) pendingAfter() (uint64, bool) {
	var earliest uint64
	found := false
	for _, w := range s.Workers {
		for _, t := range w.queue {
			if !found || t.availableAt < earliest {
				earliest, found = t.availableAt, true
			}
		}
	}
	return earliest, found
}

// Results summarizes a completed schedule (the Fig. 11 observables).
type Results struct {
	CPUTime  uint64 // accumulated busy cycles over all cores
	Latency  uint64 // end-to-end makespan in cycles
	Tasks    []*Task
	Migrated int
}

// Run executes all submitted tasks to completion and returns the results.
func (s *Scheduler) Run() (*Results, error) {
	res := &Results{Tasks: s.tasks}
	for iter := 0; ; iter++ {
		if iter > 100*len(s.tasks)+1_000_000 {
			return nil, fmt.Errorf("kernel: scheduler livelock after %d dispatch rounds", iter)
		}
		// Pick the worker with the smallest clock that can obtain work.
		// Each round sorts a fresh copy of Workers, so ties break as they
		// did when the copy was allocated.
		s.order = append(s.order[:0], s.Workers...)
		ws := s.order
		slices.SortFunc(ws, func(a, b *Worker) int { return cmp.Compare(a.Now, b.Now) })
		var w *Worker
		var task *Task
		for _, cand := range ws {
			if t := s.take(cand); t != nil {
				w, task = cand, t
				break
			}
		}
		if task == nil {
			if earliest, ok := s.pendingAfter(); ok {
				// Causality: tasks exist but become available later (e.g.
				// FAM migrations in flight); advance the idlest worker.
				for _, cand := range ws {
					if cand.Now < earliest {
						cand.Now = earliest
						break
					}
				}
				continue
			}
			break // all done
		}
		if err := s.runTask(w, task); err != nil {
			return nil, err
		}
		if s.invariantErr != nil {
			return nil, s.invariantErr
		}
	}
	for _, w := range s.Workers {
		res.CPUTime += w.Busy
		if w.Now > res.Latency {
			res.Latency = w.Now
		}
	}
	for _, t := range s.tasks {
		if !t.Done {
			return nil, fmt.Errorf("kernel: task %d never completed", t.ID)
		}
		if t.Proc.Counters.Migrations > 0 {
			res.Migrated++
		}
	}
	return res, nil
}

// runTask executes a task on a worker until it completes or migrates away.
func (s *Scheduler) runTask(w *Worker, t *Task) error {
	if t.Done {
		return fmt.Errorf("kernel: task %d rescheduled after completion", t.ID)
	}
	t.Dispatches++
	// Select the MMView for this core (Fig. 9 ①). The hart's ISA is the
	// core's: a binary with unsupported instructions faults here, which is
	// what drives FAM and runtime rewriting.
	if err := t.Proc.MigrateTo(w.Core.ISA); err != nil {
		return fmt.Errorf("kernel: task %d on core %d: %w", t.ID, w.Core.ID, err)
	}
	if w.Core.IsExt() {
		t.RanOnExt = true
		if t.Proc.CurrentView().isa.Has(riscv.ExtV) && t.Proc.CurrentView().img.ISA.Has(riscv.ExtV) {
			t.Accelerated = true
		}
	}
	// A batch workload without preemption: the task keeps this worker
	// until it exits or asks to migrate.
	cpu := t.Proc.CPU
	cpu.Borrow(&s.arena)
	cycles, st, err := t.Proc.RunToExit(context.Background(), s.SliceInstr)
	if st == StatusNeedMigration && err == nil {
		cpu.Borrow(nil) // it keeps its translations for its next dispatch
	} else {
		cpu.Release()
	}
	w.Now += cycles
	w.Busy += cycles
	t.CyclesUsed += cycles
	if err != nil {
		return fmt.Errorf("kernel: task %d: %w", t.ID, err)
	}
	switch st {
	case StatusExited:
		t.Done = true
		t.Failed = t.Proc.Signal != 0
		t.CompletedAt = w.Now
		return nil
	case StatusNeedMigration:
		// FAM: hand the task to the extension pool (§2.1). The task
		// becomes available after the migration latency.
		w.Now += MigrationCost
		t.Proc.Counters.Migrations++
		t.Proc.Counters.KernelCycles += MigrationCost
		t.availableAt = w.Now
		t.NeedsExt = true
		t.Pinned = true
		var best *Worker
		for _, v := range s.Workers {
			if !v.Core.IsExt() {
				continue
			}
			if best == nil || len(v.queue) < len(best.queue) {
				best = v
			}
		}
		if best == nil {
			return fmt.Errorf("kernel: task %d needs an extension core but none exists", t.ID)
		}
		s.enqueue(best, t)
		return nil
	}
	// The kernel never arms the hart watchdog itself; a StatusBudget stop
	// means a caller budgeted the hart and the guest ran it dry.
	return fmt.Errorf("kernel: task %d exhausted its instruction budget", t.ID)
}
