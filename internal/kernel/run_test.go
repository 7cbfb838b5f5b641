package kernel

import (
	"context"
	"testing"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// guest assembles a single-function RV64GC program.
func guest(t *testing.T, name string, body func(b *asm.Builder)) *obj.Image {
	t.Helper()
	b := asm.NewBuilder(riscv.RV64GC)
	b.Func("main")
	body(b)
	img, err := b.Build(name, "main")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// cancelAfter is a context whose Err turns to context.Canceled on its
// n+1-th call: RunToExit checks it once before every slice, so exactly n
// slices run.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestRunToExit covers every way the one drive loop can end, and that a
// yield is not one of them.
func TestRunToExit(t *testing.T) {
	spin := func(b *asm.Builder) {
		b.Label("spin")
		b.J("spin")
	}
	const yields = 5
	cases := []struct {
		name   string
		img    *obj.Image
		setup  func(p *Process)
		ctx    context.Context
		slice  uint64
		st     Status
		err    error
		check  func(t *testing.T, p *Process, cycles uint64)
		exited bool
	}{
		{
			name: "clean exit",
			img: guest(t, "exit42", func(b *asm.Builder) {
				b.Li(riscv.A0, 42)
				exitWith(b)
			}),
			st: StatusExited, exited: true,
			check: func(t *testing.T, p *Process, _ uint64) {
				if p.ExitCode != 42 || p.Signal != 0 {
					t.Errorf("exit code %d, signal %d; want 42, 0", p.ExitCode, p.Signal)
				}
			},
		},
		{
			name: "voluntary exit above 128",
			img: guest(t, "exit200", func(b *asm.Builder) {
				b.Li(riscv.A0, 200)
				exitWith(b)
			}),
			st: StatusExited, exited: true,
			check: func(t *testing.T, p *Process, _ uint64) {
				if p.ExitCode != 200 || p.Signal != 0 {
					t.Errorf("exit code %d, signal %d; want 200, 0", p.ExitCode, p.Signal)
				}
			},
		},
		{
			name: "signal kill",
			img: guest(t, "nullderef", func(b *asm.Builder) {
				b.Load(riscv.LD, riscv.T0, riscv.Zero, 0)
				b.Li(riscv.A0, 0)
				exitWith(b)
			}),
			st: StatusExited, exited: true,
			check: func(t *testing.T, p *Process, _ uint64) {
				if p.Signal != SIGSEGV || p.ExitCode != 128+SIGSEGV {
					t.Errorf("signal %d, exit code %d; want %d, %d", p.Signal, p.ExitCode, SIGSEGV, 128+SIGSEGV)
				}
			},
		},
		{
			name:  "budget stop",
			img:   guest(t, "spin", spin),
			setup: func(p *Process) { p.CPU.MaxInstret = 12_345 },
			slice: 1000,
			st:    StatusBudget,
			check: func(t *testing.T, p *Process, _ uint64) {
				if p.CPU.Instret != 12_345 {
					t.Errorf("stopped at instret %d, want exactly MaxInstret 12345", p.CPU.Instret)
				}
			},
		},
		{
			name: "need migration under FAM",
			img:  buildVecProgram(t, 3),
			setup: func(p *Process) {
				p.FAM = true
				if err := p.MigrateTo(riscv.RV64GC); err != nil {
					t.Fatal(err)
				}
			},
			st: StatusNeedMigration,
			check: func(t *testing.T, p *Process, _ uint64) {
				if p.CPU.ISA != riscv.RV64GC {
					t.Errorf("hart ISA %v after MigrateTo without a view, want the core's %v", p.CPU.ISA, riscv.RV64GC)
				}
			},
		},
		{
			name:  "ctx cancelled between slices",
			img:   guest(t, "spin", spin),
			ctx:   &cancelAfter{Context: context.Background(), n: 2},
			slice: 1000,
			st:    StatusRunning,
			err:   context.Canceled,
			check: func(t *testing.T, p *Process, cycles uint64) {
				if p.CPU.Instret != 2000 {
					t.Errorf("instret %d after two slices, want 2000", p.CPU.Instret)
				}
				if cycles != p.CPU.Cycles {
					t.Errorf("cycles %d, want the hart's %d", cycles, p.CPU.Cycles)
				}
			},
		},
		{
			name: "yields continue",
			img: guest(t, "yield", func(b *asm.Builder) {
				b.Li(riscv.S1, yields)
				b.Label("again")
				b.Li(riscv.A7, SysYield)
				b.Ecall()
				b.Imm(riscv.ADDI, riscv.S1, riscv.S1, -1)
				b.Bne(riscv.S1, riscv.Zero, "again")
				b.Li(riscv.A0, 7)
				exitWith(b)
			}),
			st: StatusExited, exited: true,
			check: func(t *testing.T, p *Process, _ uint64) {
				if p.ExitCode != 7 || p.Counters.Syscalls != yields+1 {
					t.Errorf("exit code %d after %d syscalls, want 7 after %d", p.ExitCode, p.Counters.Syscalls, yields+1)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := NewProcess(c.img.Name, []Variant{{ISA: c.img.ISA, Image: c.img}})
			if err != nil {
				t.Fatal(err)
			}
			if c.setup != nil {
				c.setup(p)
			}
			ctx, slice := c.ctx, c.slice
			if ctx == nil {
				ctx = context.Background()
			}
			if slice == 0 {
				slice = 1_000_000
			}
			cycles, st, err := p.RunToExit(ctx, slice)
			if err != c.err {
				t.Fatalf("err %v, want %v", err, c.err)
			}
			if st != c.st || p.Exited != c.exited {
				t.Fatalf("status %v, exited %v; want %v, %v", st, p.Exited, c.st, c.exited)
			}
			if c.check != nil {
				c.check(t, p, cycles)
			}
		})
	}
}

// TestMigrateToPinsCoreISA: after MigrateTo(isa) the hart runs at the
// core's ISA on every path — a real view switch, a core whose best view is
// already the current one, and FAM with no view for the core (covered in
// TestRunToExit) — so no caller has to set CPU.ISA itself.
func TestMigrateToPinsCoreISA(t *testing.T) {
	img := buildVecProgram(t, 3)
	p, err := NewProcess("vec", chimeraVariants(t, img))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MigrateTo(riscv.RV64GC); err != nil {
		t.Fatal(err)
	}
	if p.CPU.ISA != riscv.RV64GC || p.CurrentView().isa != riscv.RV64GC {
		t.Errorf("switch: hart %v on view %v, want rv64gc on rv64gc", p.CPU.ISA, p.CurrentView().isa)
	}

	base := guest(t, "base", func(b *asm.Builder) {
		b.Li(riscv.A0, 0)
		exitWith(b)
	})
	p, err = NewProcess("base", []Variant{{ISA: base.ISA, Image: base}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MigrateTo(riscv.RV64GCV); err != nil {
		t.Fatal(err)
	}
	if p.CPU.ISA != riscv.RV64GCV || p.Counters.Migrations != 0 {
		t.Errorf("same view: hart %v after %d migrations, want %v after none", p.CPU.ISA, p.Counters.Migrations, riscv.RV64GCV)
	}
	if err := p.MigrateTo(riscv.RV64GCV &^ riscv.ExtC); err == nil {
		t.Error("MigrateTo a core no view runs on succeeded without FAM")
	}
}
