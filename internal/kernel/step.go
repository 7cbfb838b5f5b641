package kernel

import (
	"context"
	"errors"
	"fmt"

	"github.com/eurosys26p57/chimera/internal/chaos"
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// Status reports how a scheduling slice ended.
type Status int

// Statuses.
const (
	// StatusRunning: the slice was exhausted; the task is still runnable.
	StatusRunning Status = iota
	// StatusExited: the process called exit or died on a signal.
	StatusExited
	// StatusNeedMigration: FAM policy hit an unsupported instruction; the
	// scheduler must move the task to a capable core (§2.1).
	StatusNeedMigration
	// StatusYield: the process gave up its slice voluntarily.
	StatusYield
	// StatusBudget: the hart's hard instruction budget (emu.CPU.MaxInstret)
	// was exhausted — the watchdog tripped on an unbounded execution.
	StatusBudget
)

type stepStatus = Status

const stepOK = StatusRunning

// step is the single-instruction helper used by migration probes.
func (p *Process) step(n uint64) Status {
	_, st, _ := p.Run(n)
	return st
}

// RunToExit is the one way to drive a guest to the end of its run: it calls
// Run in slices of the given size until the process exits (voluntarily or
// on a fatal signal, see Signal), hits an instruction its core lacks under
// FAM (StatusNeedMigration), or runs the hart's instruction budget dry
// (StatusBudget, emu.CPU.MaxInstret), or until Run reports a simulator
// error. ctx is checked before every slice; once it is done RunToExit
// returns ctx.Err(). Yields continue on the same core. cycles totals every
// slice's consumption (guest + kernel).
func (p *Process) RunToExit(ctx context.Context, slice uint64) (cycles uint64, st Status, err error) {
	for {
		if err = ctx.Err(); err != nil {
			return cycles, st, err
		}
		var n uint64
		n, st, err = p.Run(slice)
		cycles += n
		if err != nil || st == StatusExited || st == StatusNeedMigration || st == StatusBudget {
			return cycles, st, err
		}
	}
}

// Run executes up to slice instructions on the current view, servicing
// syscalls, traps, and deterministic faults. It returns the cycles
// consumed (guest + kernel charges), the resulting status, and an error
// only for simulator-level problems (never for guest crashes, which exit
// the process with 128+signal).
func (p *Process) Run(slice uint64) (uint64, Status, error) {
	cpu := p.CPU
	startCycles := cpu.Cycles
	startKernel := p.Counters.KernelCycles
	startChecks := p.hooks.IndirectCalls
	executed := uint64(0)
	status := StatusRunning

loop:
	for executed < slice && !p.Exited {
		if len(p.pending) > 0 && !p.inSignal {
			sig := p.pending[0]
			p.pending = p.pending[1:]
			p.deliverSignal(sig)
			if p.Exited {
				status = StatusExited
				break
			}
		}
		if p.Chaos != nil {
			// Fault injection (internal/chaos): a spurious migration demand
			// and/or a spurious emulator fault at the current pc. Both are
			// absorbed without touching architectural state, so chaos runs
			// must end bit-identical to clean ones. At most one roll of each
			// kind per dispatch, and execution always proceeds afterwards,
			// so sub-1 rates cannot livelock the loop.
			if bool(p.FAM) && p.Chaos.Roll(chaos.MigrationStorm) {
				status = StatusNeedMigration
				break loop
			}
			if p.Chaos.Roll(chaos.SpuriousFault) {
				st := p.handleFault(emu.Fault{Kind: emu.FaultIllegal, PC: cpu.PC, Err: chaos.ErrInjected})
				if st != StatusRunning {
					status = st
					break loop
				}
			}
		}
		before := cpu.Instret
		stop := cpu.Run(slice - executed)
		executed += cpu.Instret - before
		switch stop.Kind {
		case emu.StopLimit:
			// Slice exhausted.
		case emu.StopBudget:
			status = StatusBudget
			break loop
		case emu.StopEcall:
			st, err := p.syscall()
			if err != nil {
				return p.consumed(startCycles, startKernel, startChecks), status, err
			}
			if st != StatusRunning {
				status = st
				break loop
			}
		case emu.StopBreak:
			if !p.handleBreak() {
				p.deliverSignal(SIGTRAP)
			}
		case emu.StopFault:
			st := p.handleFault(stop.Fault)
			if st != StatusRunning {
				status = st
				break loop
			}
		}
	}
	if p.Exited {
		status = StatusExited
	}
	return p.consumed(startCycles, startKernel, startChecks), status, nil
}

func (p *Process) consumed(startCycles, startKernel, startChecks uint64) uint64 {
	p.Counters.Checks += p.hooks.IndirectCalls - startChecks
	return (p.CPU.Cycles - startCycles) + (p.Counters.KernelCycles - startKernel)
}

// handleBreak services an ebreak through the trap tables. It reports
// whether the trap was a known trampoline.
func (p *Process) handleBreak() bool {
	t := p.cur.tables
	if t == nil {
		return false
	}
	if tgt, ok := t.Trap[p.CPU.PC]; ok {
		// A resolver-pre-materialized site: the first time execution enters
		// it, credit the runtime-rewrite faults its pre-built row avoided.
		// The seen set survives Reset, like the runtime rewrites themselves:
		// a site is only ever materialized once per process lifetime.
		if n := t.Resolved[p.CPU.PC]; n > 0 && !p.cur.resolvedSeen[p.CPU.PC] {
			if p.cur.resolvedSeen == nil {
				p.cur.resolvedSeen = make(map[uint64]bool)
			}
			p.cur.resolvedSeen[p.CPU.PC] = true
			p.Counters.RewriteFaultsAvoided += n
		}
		p.CPU.PC = tgt
		p.Counters.Traps++
		p.Counters.KernelCycles += TrapCost
		return true
	}
	if resume, ok := t.ExitTrap[p.CPU.PC]; ok && resume != 0 {
		p.CPU.PC = resume
		p.Counters.Traps++
		p.Counters.KernelCycles += TrapCost
		return true
	}
	return false
}

// handleFault routes a deterministic fault (§4.3): CHBP-raised faults are
// recovered through the fault-handling table; unrecognized extension
// instructions are rewritten at run time (or trigger migration under FAM);
// anything else is a real program fault and becomes a signal.
func (p *Process) handleFault(f emu.Fault) Status {
	cpu := p.CPU
	t := p.cur.tables
	switch f.Kind {
	case emu.FaultAccess:
		if t != nil {
			// A partially-executed SMILE trampoline jumped through the
			// unmodified gp into the data segment. The jalr stored its
			// return address in gp, so the fault address is gp-4 (§4.3).
			key := cpu.X[riscv.GP] - 4
			if tgt, ok := t.Redirect[key]; ok && cpu.PC == f.PC {
				cpu.X[riscv.GP] = t.GP
				cpu.PC = tgt
				p.Counters.FaultRecoveries++
				p.Counters.KernelCycles += FaultRecoveryCost
				return StatusRunning
			}
			// Fig. 5 general-register trampolines leave the return address
			// in the pair's register instead of gp; scan the register file
			// for a value matching a redirect key. The relocated copies
			// re-execute the overwritten lui, so no register restore is
			// needed.
			for r := riscv.T0; r < 32; r++ {
				if tgt, ok := t.Redirect[cpu.X[r]-4]; ok && cpu.PC == f.PC {
					cpu.PC = tgt
					p.Counters.FaultRecoveries++
					p.Counters.KernelCycles += FaultRecoveryCost
					return StatusRunning
				}
			}
		}
		p.deliverSignal(SIGSEGV)
		return p.signalStatus()
	case emu.FaultIllegal:
		if errors.Is(f.Err, chaos.ErrInjected) {
			// Spurious fault: no instruction justified it. Re-validate the
			// faulting pc — if the instruction there decodes and is within
			// the hart's ISA, the fault carries no information and the
			// kernel absorbs it, exactly as real kernels retry spurious
			// page faults. Anything else is dropped too: whatever would
			// genuinely fault at this pc will fault (precisely) when the
			// hart actually executes it.
			if inst, err := decodeIn(p.cur.mem, f.PC); err == nil && p.CPU.ISA.Has(inst.Extension()) {
				p.Counters.SpuriousFaults++
				p.Counters.KernelCycles += SpuriousFaultCost
			}
			return StatusRunning
		}
		if t != nil {
			if tgt, ok := t.Redirect[f.PC]; ok {
				cpu.PC = tgt
				p.Counters.FaultRecoveries++
				p.Counters.KernelCycles += FaultRecoveryCost
				return StatusRunning
			}
		}
		// Unrecognized extension instruction? (The hart's ISA is the core's,
		// which may be narrower than the view's.)
		if inst, err := decodeIn(p.cur.mem, f.PC); err == nil && !p.CPU.ISA.Has(inst.Extension()) {
			if p.FAM {
				return StatusNeedMigration
			}
			if err := p.runtimeRewrite(p.cur, f.PC); err == nil {
				return StatusRunning // pc unchanged: the fresh trap trampoline fires next
			}
		}
		p.deliverSignal(SIGILL)
		return p.signalStatus()
	}
	p.deliverSignal(SIGILL)
	return p.signalStatus()
}

func (p *Process) signalStatus() Status {
	if p.Exited {
		return StatusExited
	}
	return StatusRunning
}

// decodeIn decodes the instruction at pc in m, reading through Peek: four
// bytes, or two where pc+4 runs past the mapped range (a compressed
// instruction at its end). An instruction that straddles two mapped pages
// is read from both.
func decodeIn(m *emu.Memory, pc uint64) (riscv.Inst, error) {
	var buf [4]byte
	if m.Peek(pc, buf[:]) {
		return riscv.Decode(buf[:])
	}
	if m.Peek(pc, buf[:2]) {
		return riscv.Decode(buf[:2])
	}
	return riscv.Inst{}, fmt.Errorf("pc %#x unmapped", pc)
}

// deliverSignal delivers a signal to the process: to its registered user
// handler (with gp restored to the ABI value so the handler runs correctly
// even if the signal interrupted a SMILE trampoline, §4.3 Fig. 10), or
// fatally when there is none.
func (p *Process) deliverSignal(sig int) {
	handler, ok := p.handlers[sig]
	if !ok || p.inSignal {
		p.Exited = true
		p.ExitCode = 128 + uint64(sig)
		p.Signal = sig
		return
	}
	p.sigFrame = sigContext{X: p.CPU.X, F: p.CPU.F, PC: p.CPU.PC}
	p.inSignal = true
	p.CPU.PC = handler
	p.CPU.X[riscv.A0] = uint64(sig)
	if t := p.cur.tables; t != nil && t.GP != 0 {
		// Chimera's signal-handling fix: the user handler observes the ABI
		// gp even when the trampoline had it temporarily overwritten.
		p.CPU.X[riscv.GP] = t.GP
	} else {
		p.CPU.X[riscv.GP] = p.cur.img.GP
	}
	p.Counters.SignalsTaken++
	p.Counters.KernelCycles += SignalDeliveryCost
}

// Kill queues an asynchronous signal, delivered at the next scheduling
// point.
func (p *Process) Kill(sig int) { p.pending = append(p.pending, sig) }

// syscall services an environment call.
func (p *Process) syscall() (Status, error) {
	cpu := p.CPU
	p.Counters.Syscalls++
	p.Counters.KernelCycles += SyscallCost
	nr := cpu.X[riscv.A7]
	a0, a1, a2 := cpu.X[riscv.A0], cpu.X[riscv.A1], cpu.X[riscv.A2]
	advance := true
	st := StatusRunning
	switch nr {
	case SysExit:
		p.Exited = true
		p.ExitCode = a0
		st = StatusExited
		advance = false
	case SysWrite:
		if a2 > 1<<20 {
			cpu.X[riscv.A0] = ^uint64(0) // EFAULT-ish
			break
		}
		// Read straight into Output's grown tail: no per-call scratch
		// buffer, so a reset-and-rerun process writes allocation-free once
		// Output's capacity has seen its high-water mark.
		n := len(p.Output)
		need := n + int(a2)
		for cap(p.Output) < need {
			p.Output = append(p.Output[:cap(p.Output)], 0)
		}
		p.Output = p.Output[:need]
		if fa, ok := cpu.Mem.Read(a1, p.Output[n:]); !ok {
			p.Output = p.Output[:n]
			return st, fmt.Errorf("kernel: write(2) buffer fault at %#x", fa)
		}
		cpu.X[riscv.A0] = a2
	case SysRead:
		// Sequential reads from the process's armed Input buffer (fd is
		// ignored — the simulated process has a single input stream). Zero
		// bytes past the end signals EOF. The copy lands directly in guest
		// memory, so repeated SetInput/Reset/Run cycles never allocate.
		if a2 > 1<<20 {
			cpu.X[riscv.A0] = ^uint64(0) // EFAULT-ish
			break
		}
		rem := len(p.Input) - p.inputOff
		n := int(a2)
		if n > rem {
			n = rem
		}
		if n > 0 {
			if fa, ok := cpu.Mem.Write(a1, p.Input[p.inputOff:p.inputOff+n]); !ok {
				return st, fmt.Errorf("kernel: read(2) buffer fault at %#x", fa)
			}
			p.inputOff += n
		}
		cpu.X[riscv.A0] = uint64(n)
	case SysGetTID:
		cpu.X[riscv.A0] = 1
	case SysYield:
		st = StatusYield
	case SysSigaction:
		p.handlers[int(a0)] = a1
		cpu.X[riscv.A0] = 0
	case SysSigreturn:
		if !p.inSignal {
			return st, fmt.Errorf("kernel: sigreturn outside a signal")
		}
		cpu.X = p.sigFrame.X
		cpu.F = p.sigFrame.F
		cpu.PC = p.sigFrame.PC
		p.inSignal = false
		advance = false
	default:
		cpu.X[riscv.A0] = ^uint64(37) // -ENOSYS
	}
	if advance {
		cpu.PC += 4
	}
	return st, nil
}
