package emu

import (
	"math"
	"testing"

	"github.com/eurosys26p57/chimera/internal/riscv"
)

// TestFcvtLDSaturates checks fcvt.l.d against the RISC-V conversion table
// on every execution tier: in-range values truncate toward zero, NaN and
// positive overflow give 2^63-1, and negative overflow gives -2^63. The
// conversion sits in a loop, so the traces tier retires it inside a trace.
func TestFcvtLDSaturates(t *testing.T) {
	cases := []struct {
		name string
		in   float64
		want int64
	}{
		{"nan", math.NaN(), math.MaxInt64},
		{"+inf", math.Inf(1), math.MaxInt64},
		{"-inf", math.Inf(-1), math.MinInt64},
		{"+1e300", 1e300, math.MaxInt64},
		{"-1e300", -1e300, math.MinInt64},
		{"+2^63", 0x1p63, math.MaxInt64},
		{"-2^63", -0x1p63, math.MinInt64},
		{"below +2^63", math.Nextafter(0x1p63, 0), 1<<63 - 1024},
		{"-0", math.Copysign(0, -1), 0},
		{"2.9", 2.9, 2},
		{"-2.9", -2.9, -2},
	}
	text := enc(t,
		riscv.Inst{Op: riscv.FMVDX, Rd: 1, Rs1: riscv.A1},
		riscv.Inst{Op: riscv.FCVTLD, Rd: riscv.A2, Rs1: 1},
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: -1},
		riscv.Inst{Op: riscv.BNE, Rs1: riscv.A0, Rs2: riscv.Zero, Imm: -8},
		riscv.Inst{Op: riscv.EBREAK},
	)
	tiers := []struct {
		name      string
		interp    bool
		threshold uint32
	}{{"step", true, 0}, {"blocks", false, 0}, {"traces", false, 2}}
	for _, c := range cases {
		for _, tier := range tiers {
			cpu := codeCPU(t, text)
			cpu.Interp = tier.interp
			cpu.TraceThreshold = tier.threshold
			cpu.X[riscv.A0] = 50
			cpu.X[riscv.A1] = math.Float64bits(c.in)
			if stop := cpu.Run(1000); stop.Kind != StopBreak {
				t.Fatalf("%s/%s: stop %+v, want ebreak", c.name, tier.name, stop)
			}
			if got := int64(cpu.X[riscv.A2]); got != c.want {
				t.Errorf("%s/%s: fcvt.l.d(%v) = %d, want %d", c.name, tier.name, c.in, got, c.want)
			}
			if tier.name == "traces" && cpu.Blocks.TraceRetired == 0 {
				t.Errorf("%s/traces: no instruction retired in a trace", c.name)
			}
		}
	}
}
