// Package corpus is the adversarial program corpus behind the rewriter
// robustness evaluation matrix (cmd/chimera-eval): deterministic,
// seed-addressed families of RV64GCV guest programs, each built around one
// axis known to break static binary rewriters — stripped symbols,
// data embedded in executable ranges, misaligned compressed-instruction
// mixes, dense and writable jump tables, hand-written-assembly idioms
// (mid-function entries, materialized-ra indirect flow), and oversized
// images whose relocation targets sit outside direct-jump range.
//
// The package promotes the generators living in internal/workload and
// internal/fuzz into first-class, named corpus families: the same seed
// always yields a byte-identical image, so matrix cells are reproducible
// and the committed baseline can gate regressions. Every family's original
// image runs to a clean exit — never a signal kill (kernel.Process.Signal)
// — on a matching core: the adversarial part is what the REWRITERS must
// survive, not the program. Fuzz-derived families exit with their full
// 64-bit checksum, which may be any value, 128 and up included.
package corpus

import (
	"fmt"
	"sort"

	"github.com/eurosys26p57/chimera/internal/obj"
)

// Program is one built corpus entry: the image, a generous
// retired-instruction bound for any conforming execution (original or
// rewritten — exceeding it means a broken rewrite looped), and machine-
// checkable evidence of the family's axis for the fidelity tests.
type Program struct {
	Image  *obj.Image
	Budget uint64
	Family string
	Seed   int64

	// Axis evidence (fields are populated per family).
	DataInText []Range // non-instruction byte ranges inside executable sections
	HiddenCode bool    // carries code plain recursive descent cannot reach
	MidEntry   bool    // publishes a mid-function entry point
	TextSpan   uint64  // executable-section span in bytes (oversized axis)
}

// Range is a half-open [Start, End) address range.
type Range struct {
	Start, End uint64
}

// Family is one named corpus axis.
type Family struct {
	// Name addresses the family on the chimera-eval command line and in
	// matrix JSON.
	Name string
	// Axis is the one-line description of what the family breaks.
	Axis string
	// Build constructs the seed's program. Deterministic: the same seed
	// yields a byte-identical image.
	Build func(seed int64) (*Program, error)
}

// families is populated by families.go.
var families []Family

// Families lists every corpus family, sorted by name.
func Families() []Family {
	out := append([]Family(nil), families...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName looks a family up.
func ByName(name string) (Family, bool) {
	for _, f := range families {
		if f.Name == name {
			return f, true
		}
	}
	return Family{}, false
}

// Build constructs one program by family name.
func Build(family string, seed int64) (*Program, error) {
	f, ok := ByName(family)
	if !ok {
		return nil, fmt.Errorf("corpus: unknown family %q", family)
	}
	return f.Build(seed)
}
