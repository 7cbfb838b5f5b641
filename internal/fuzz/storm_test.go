package fuzz

import (
	"testing"

	"github.com/eurosys26p57/chimera/internal/chaos"
	"github.com/eurosys26p57/chimera/internal/kernel"
)

// TestSchedulerMigrationStorm batters the work-stealing scheduler with
// injected migration storms (spurious StatusNeedMigration) and spurious
// emulator faults, then holds it to the differential-fuzzing oracle: the
// process must never be lost or double-scheduled, and its final
// architectural state must be bit-identical to a chaos-free single-core
// run of the same spec — storms may only cost scheduling time.
func TestSchedulerMigrationStorm(t *testing.T) {
	var totalStorms, totalSpurious uint64
	for seed := int64(1); seed <= 8; seed++ {
		spec := Generate(seed, DefaultConfig())

		// Chaos-free single-core reference.
		img, budget, err := spec.Assemble()
		if err != nil {
			t.Fatalf("seed %d: assemble: %v", seed, err)
		}
		v, err := kernel.VariantFromImage(img)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref, err := newProc(v, img.ISA, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r := runReport("original", ref, img, budget); r.Hang || r.SimError != "" {
			t.Fatalf("seed %d: reference did not exit cleanly (hang=%v err=%s)", seed, r.Hang, r.SimError)
		}

		// Storm run: same binary under FAM on a 2-base + 2-ext machine, with
		// spurious migrations and spurious faults injected per dispatch.
		img2, _, err := spec.Assemble()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		v2, err := kernel.VariantFromImage(img2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p, err := kernel.NewProcess(img2.Name, []kernel.Variant{v2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p.FAM = true
		inj := chaos.New(seed, chaos.Config{Rates: map[chaos.Kind]float64{
			chaos.MigrationStorm: 0.30,
			chaos.SpuriousFault:  0.30,
		}})
		p.Chaos = inj

		sched := kernel.NewScheduler(kernel.NewMachine(2, 2))
		task := &kernel.Task{Proc: p, NeedsExt: false}
		sched.Submit(task)
		if _, err := sched.Run(); err != nil {
			t.Fatalf("seed %d: scheduler under storm: %v", seed, err)
		}
		if !task.Done {
			t.Fatalf("seed %d: task lost under migration storm", seed)
		}
		// Every migration (organic FAM or injected storm) is one extra
		// dispatch; anything else would mean a lost or duplicated wakeup.
		if task.Dispatches != 1+int(p.Counters.Migrations) {
			t.Errorf("seed %d: %d dispatches for %d migrations", seed, task.Dispatches, p.Counters.Migrations)
		}

		// The oracle: chaos is invisible in architectural state.
		if diff := stateDiff(ref, p); diff != "" {
			t.Errorf("seed %d: storm run diverged from single-core reference: %s", seed, diff)
		}
		if got, want := dataHash(p.CPU.Mem, img2), dataHash(ref.CPU.Mem, img); got != want {
			t.Errorf("seed %d: writable-data hash %#x vs reference %#x", seed, got, want)
		}

		totalStorms += inj.Fired(chaos.MigrationStorm)
		totalSpurious += p.Counters.SpuriousFaults
	}
	if totalStorms == 0 {
		t.Error("no migration storms fired across all seeds; injection not wired")
	}
	if totalSpurious == 0 {
		t.Error("no spurious faults absorbed across all seeds; injection not wired")
	}
}
