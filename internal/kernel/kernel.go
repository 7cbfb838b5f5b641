// Package kernel simulates the operating-system half of Chimera (§4.3): a
// process model with multiple address-space views (MMViews) sharing data
// frames, deterministic-fault recovery driven by CHBP's tables, runtime
// rewriting of unrecognized extension instructions, signal delivery that
// restores gp for user handlers, task migration with target-section probes,
// and a work-stealing scheduler over heterogeneous core pools.
//
// It replaces the paper's modified Linux kernel; fault routing that the
// real system performs in the SIGSEGV/SIGILL paths happens here against the
// emulator's precise fault interface.
package kernel

import "github.com/eurosys26p57/chimera/internal/riscv"

// Kernel event costs in cycles, charged on top of guest execution. These
// are the runtime-side calibration knobs (DESIGN.md §4).
const (
	// SyscallCost is an ecall round trip.
	SyscallCost = 150
	// TrapCost is a trap-based trampoline round trip (ebreak + redirect).
	TrapCost = 700
	// FaultRecoveryCost is a full deterministic-fault recovery: signal
	// frame, fault-address derivation, table lookup, gp restore, redirect.
	FaultRecoveryCost = 1600
	// MigrationCost covers context transfer and MMView switch.
	MigrationCost = 4000
	// RuntimeRewriteCost is the one-time charge for rewriting an
	// unrecognized extension instruction when it first faults (§4.1).
	RuntimeRewriteCost = 20000
	// SignalDeliveryCost covers building and tearing down a signal frame.
	SignalDeliveryCost = 900
	// SpuriousFaultCost is the charge for absorbing a spurious fault: the
	// kernel re-validates the faulting instruction and resumes without
	// touching architectural state (the retry path real kernels take for
	// spurious page faults).
	SpuriousFaultCost = 500
)

// Syscall numbers (Linux RISC-V numbers where they exist).
const (
	SysRead      = 63
	SysWrite     = 64
	SysExit      = 93
	SysSigaction = 134
	SysSigreturn = 139
	SysGetTID    = 178
	SysYield     = 124
)

// Signal numbers.
const (
	SIGILL  = 4
	SIGTRAP = 5
	SIGSEGV = 11
	SIGUSR1 = 10
)

// CoreSpec describes one hart of the machine.
type CoreSpec struct {
	ID  int
	ISA riscv.Ext
}

// IsExt reports whether the core supports the vector extension (the
// "extension core" class of §6).
func (c CoreSpec) IsExt() bool { return c.ISA.Has(riscv.ExtV) }

// Machine is a heterogeneous ISAX processor: base cores run RV64GC,
// extension cores RV64GCV (§6 setup).
type Machine struct {
	Cores []CoreSpec
}

// NewMachine builds a machine with the given number of base and extension
// cores.
func NewMachine(baseCores, extCores int) *Machine {
	m := &Machine{}
	for i := 0; i < baseCores; i++ {
		m.Cores = append(m.Cores, CoreSpec{ID: len(m.Cores), ISA: riscv.RV64GC})
	}
	for i := 0; i < extCores; i++ {
		m.Cores = append(m.Cores, CoreSpec{ID: len(m.Cores), ISA: riscv.RV64GCV})
	}
	return m
}

// BaseCores returns the cores without the vector extension.
func (m *Machine) BaseCores() []CoreSpec {
	var out []CoreSpec
	for _, c := range m.Cores {
		if !c.IsExt() {
			out = append(out, c)
		}
	}
	return out
}

// ExtCores returns the vector-capable cores.
func (m *Machine) ExtCores() []CoreSpec {
	var out []CoreSpec
	for _, c := range m.Cores {
		if c.IsExt() {
			out = append(out, c)
		}
	}
	return out
}

// Counters tallies kernel events for a process — the observables behind
// Table 2 and the breakdowns of §6.
type Counters struct {
	FaultRecoveries uint64 // deterministic faults recovered via tables
	Traps           uint64 // trap-based trampoline redirections
	Checks          uint64 // indirect-jump pointer checks (Safer hook)
	RuntimeRewrites uint64 // unrecognized instructions rewritten at run time
	// RewriteFaultsAvoided counts the runtime-rewrite faults that never
	// happened because the resolver pre-materialized the site's fault-table
	// row at rewrite time (chbp.Tables.Resolved). Credited once per site,
	// the first time execution actually enters it.
	RewriteFaultsAvoided uint64
	SpuriousFaults       uint64 // spurious faults re-validated and absorbed
	Migrations           uint64
	Syscalls             uint64
	SignalsTaken         uint64
	KernelCycles         uint64 // cycles charged for all kernel events
}

// Add accumulates o into c (for totals summed across processes).
func (c *Counters) Add(o Counters) {
	c.FaultRecoveries += o.FaultRecoveries
	c.Traps += o.Traps
	c.Checks += o.Checks
	c.RuntimeRewrites += o.RuntimeRewrites
	c.RewriteFaultsAvoided += o.RewriteFaultsAvoided
	c.SpuriousFaults += o.SpuriousFaults
	c.Migrations += o.Migrations
	c.Syscalls += o.Syscalls
	c.SignalsTaken += o.SignalsTaken
	c.KernelCycles += o.KernelCycles
}
