package rewriters_test

import (
	"testing"

	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// BenchmarkRewrite times one cold rewrite of a fixed SPEC-shaped image
// (perlbench_r's shape, 224 KiB of code, vector) under each of the 16
// configs the repo benchmark's rewrite-cold workload sends: every method,
// downgrading to rv64gc or empty-patching for rv64gcv, resolver off and
// on. Run with -benchmem for the bytes and allocations one rewrite costs.
func BenchmarkRewrite(b *testing.B) {
	p := workload.SpecSuite()[0].Params
	p.CodeKB, p.Rounds = 224, 4
	img, err := workload.BuildSpec(p, true)
	if err != nil {
		b.Fatal(err)
	}
	targets := []struct {
		name  string
		isa   riscv.Ext
		empty bool
	}{{"rv64gc", riscv.RV64GC, false}, {"rv64gcv", riscv.RV64GCV, true}}
	for _, m := range rewriters.Methods {
		for _, t := range targets {
			for _, res := range []bool{false, true} {
				name := m + "-" + t.name
				if res {
					name += "-resolve"
				}
				c := rewriters.Config{Method: m, Target: t.isa, EmptyPatch: t.empty, Resolve: res}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := rewriters.Rewrite(img, c); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
