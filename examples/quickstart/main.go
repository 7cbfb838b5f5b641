// Quickstart: build a small vector program, downgrade it with CHBP for a
// base core, and run both versions — the one-screen tour of Chimera's
// pipeline (assemble → rewrite → execute with passive fault handling).
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

const program = `
.option isa rv64gcv
.option compress on

.data
xs:
    .double 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0
ys:
    .double 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0
out:
    .zero 64

.text
.global main
main:
    la   a1, xs
    la   a2, ys
    la   a3, out
    li   a4, 8
loop:
    vsetvli t0, a4, e64        # strip-mine: vl = min(a4, VLMAX)
    vle64.v v1, (a1)
    vle64.v v2, (a2)
    vfadd.vv v3, v1, v2        # v3 = xs + ys (should be all 9.0)
    vse64.v v3, (a3)
    slli t1, t0, 3
    add  a1, a1, t1
    add  a2, a2, t1
    add  a3, a3, t1
    sub  a4, a4, t0
    bnez a4, loop

    la   a3, out               # checksum: sum as integers
    li   a0, 0
    li   a4, 8
sum:
    fld  ft0, 0(a3)
    fcvt.l.d t1, ft0
    add  a0, a0, t1
    addi a3, a3, 8
    addi a4, a4, -1
    bnez a4, sum
    li   a7, 93
    ecall
`

func run(variants []kernel.Variant, isa riscv.Ext) (uint64, *kernel.Process) {
	p, err := kernel.NewProcess("quickstart", variants)
	if err != nil {
		log.Fatal(err)
	}
	if err := p.MigrateTo(isa); err != nil {
		log.Fatal(err)
	}
	cycles, st, err := p.RunToExit(context.Background(), 1_000_000)
	if err != nil {
		log.Fatal(err)
	}
	if st == kernel.StatusNeedMigration {
		log.Fatal("unexpected migration request")
	}
	return cycles, p
}

func main() {
	img, err := asm.Assemble(program, "quickstart", "main")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original binary: %v, %d bytes of code\n", img.ISA, img.CodeSize())

	// Run natively on an extension core (RV64GCV).
	cycles, p := run([]kernel.Variant{{ISA: img.ISA, Image: img}}, riscv.RV64GCV)
	fmt.Printf("extension core: exit=%d in %d cycles\n", p.ExitCode, cycles)

	// Downgrade for a base core (RV64GC) with CHBP.
	res, err := chbp.Rewrite(img, chbp.Options{TargetISA: riscv.RV64GC})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CHBP: %d source instructions, %d SMILE trampolines, %d fault-table keys\n",
		res.Stats.SourceInsts, res.Stats.SmileEntries, res.Stats.RedirectKeys)

	cycles, p = run([]kernel.Variant{
		{ISA: riscv.RV64GCV, Image: img},
		{ISA: riscv.RV64GC, Image: res.Image, Tables: res.Tables},
	}, riscv.RV64GC)
	fmt.Printf("base core (rewritten): exit=%d in %d cycles, %d faults recovered\n",
		p.ExitCode, cycles, p.Counters.FaultRecoveries)

	if p.ExitCode != 72 { // 8 × 9.0
		log.Fatalf("wrong result: %d", p.ExitCode)
	}
	fmt.Println("results identical — transparent downgrade ✓")
}
