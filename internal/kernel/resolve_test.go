package kernel

import (
	"testing"

	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// dispatchProcess builds the indirect-heavy dispatch workload, rewrites it
// for a base core with or without the resolver, and loads the pair.
func dispatchProcess(t *testing.T, resolveOn bool) (*Process, *chbp.Stats) {
	t.Helper()
	img, err := workload.BuildDispatch(workload.DispatchParams{
		Name: "dispatch", Arms: 4, VecArms: 2, Rounds: 40,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chbp.Rewrite(img, chbp.Options{TargetISA: riscv.RV64GC, Resolve: resolveOn})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess("dispatch", []Variant{
		{ISA: riscv.RV64GCV, Image: img},
		{ISA: riscv.RV64GC, Image: res.Image},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MigrateTo(riscv.RV64GC); err != nil {
		t.Fatal(err)
	}
	return p, &res.Stats
}

// TestResolverAvoidsRuntimeRewrites is the end-to-end claim of the resolver
// (§4.1 vs the relational recovery): on a jump-table workload whose arms
// recursive descent cannot see, the resolver-off rewrite leaves vector
// instructions in the hidden arms unpatched — each first execution faults
// and pays a runtime rewrite — while the resolver-on rewrite pre-patches
// them, avoiding every such fault.
func TestResolverAvoidsRuntimeRewrites(t *testing.T) {
	off, _ := dispatchProcess(t, false)
	if _, st, err := off.Run(50_000_000); err != nil || st != StatusExited {
		t.Fatalf("resolver-off run: status %v err %v", st, err)
	}
	on, stats := dispatchProcess(t, true)
	if _, st, err := on.Run(50_000_000); err != nil || st != StatusExited {
		t.Fatalf("resolver-on run: status %v err %v", st, err)
	}
	if on.ExitCode != off.ExitCode {
		t.Fatalf("exit codes differ: resolver-on %d, resolver-off %d", on.ExitCode, off.ExitCode)
	}
	if off.Counters.RuntimeRewrites < 5 {
		t.Errorf("resolver-off runtime rewrites = %d, want >= 5 (hidden arms should fault)", off.Counters.RuntimeRewrites)
	}
	if on.Counters.RuntimeRewrites != 0 {
		t.Errorf("resolver-on runtime rewrites = %d, want 0", on.Counters.RuntimeRewrites)
	}
	if on.Counters.RewriteFaultsAvoided == 0 {
		t.Error("resolver-on credited no avoided rewrite faults")
	}
	if on.Counters.RewriteFaultsAvoided < off.Counters.RuntimeRewrites {
		t.Errorf("avoided %d < resolver-off faults %d: pre-materialization under-covers",
			on.Counters.RewriteFaultsAvoided, off.Counters.RuntimeRewrites)
	}
	if stats.ResolvedSites == 0 || stats.RecoveredInsts == 0 {
		t.Errorf("rewrite stats show no resolver work: %+v", stats)
	}

	// The credit is first-entry-only: resets and reruns must not re-count.
	avoided := on.Counters.RewriteFaultsAvoided
	on.Reset()
	if err := on.MigrateTo(riscv.RV64GC); err != nil {
		t.Fatal(err)
	}
	if _, st, err := on.Run(50_000_000); err != nil || st != StatusExited {
		t.Fatalf("rerun: status %v err %v", st, err)
	}
	if on.Counters.RewriteFaultsAvoided != avoided {
		t.Errorf("rerun re-credited avoided faults: %d -> %d", avoided, on.Counters.RewriteFaultsAvoided)
	}
}
