// Signals demonstrates §4.3's signal-handling compatibility fix: a program
// registers a user SIGUSR1 handler and runs CHBP-rewritten code whose SMILE
// trampolines temporarily overwrite gp. An asynchronous signal lands
// mid-run; the kernel restores gp before entering the handler (Fig. 10), so
// the handler's gp-relative data access works, and sigreturn resumes the
// interrupted trampoline with its in-flight gp intact.
package main

import (
	"fmt"
	"log"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

const program = `
.option isa rv64gcv
.data
hits:
    .dword 0
vec:
    .dword 1, 2, 3, 4
out:
    .zero 32

.text
.global main
main:
    la   a1, handler           # sigaction(SIGUSR1, handler)
    li   a0, 10
    li   a7, 134
    ecall

    li   s2, 0                 # vector work loop: every iteration crosses
    li   s3, 4000              # SMILE trampolines that overwrite gp
loop:
    la   a1, vec
    la   a2, out
    li   a3, 4
    vsetvli t0, a3, e64
    vle64.v v1, (a1)
    vadd.vv v2, v1, v1
    vse64.v v2, (a2)
    addi s2, s2, 1
    blt  s2, s3, loop

    la   a0, hits              # exit with the handler-hit count
    ld   a0, 0(a0)
    li   a7, 93
    ecall

.global handler
handler:
    la   t0, hits              # gp-dependent data access: correct only if
    ld   t1, 0(t0)             # the kernel restored gp before delivery
    addi t1, t1, 1
    sd   t1, 0(t0)
    li   a7, 139               # sigreturn
    ecall
`

func main() {
	img, err := asm.Assemble(program, "signals", "main")
	if err != nil {
		log.Fatal(err)
	}
	res, err := chbp.Rewrite(img, chbp.Options{TargetISA: riscv.RV64GC})
	if err != nil {
		log.Fatal(err)
	}
	p, err := kernel.NewProcess("signals", []kernel.Variant{
		{ISA: riscv.RV64GCV, Image: img},
		{ISA: riscv.RV64GC, Image: res.Image, Tables: res.Tables},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := p.MigrateTo(riscv.RV64GC); err != nil {
		log.Fatal(err)
	}

	// Let the program register its handler first.
	if _, _, err := p.Run(200); err != nil {
		log.Fatal(err)
	}
	// Then run in small slices, firing signals at arbitrary points — some
	// land while the pc sits inside a SMILE trampoline or a target block.
	signals := 0
	for !p.Exited {
		if signals < 25 {
			p.Kill(kernel.SIGUSR1)
			signals++
		}
		if _, _, err := p.Run(2_000); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("sent %d signals, handler observed %d (exit code)\n", signals, p.ExitCode)
	fmt.Printf("signals taken: %d, faults recovered: %d\n",
		p.Counters.SignalsTaken, p.Counters.FaultRecoveries)
	if int(p.ExitCode) != signals {
		log.Fatalf("handler missed signals: %d != %d — gp restoration broken?", p.ExitCode, signals)
	}
	fmt.Println("every handler invocation saw a correct gp ✓")
}
