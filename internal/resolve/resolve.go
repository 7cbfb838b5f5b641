// Package resolve statically recovers indirect-jump targets from an
// image with tiered confidence, in the style of Datalog disassemblers
// (ddisasm): extract relational facts from code and data — address
// materializations, bound checks, shifted-index table slices, code
// pointers at rest in rodata/data, symbol anchors — then run rules over
// them to a fixpoint, feeding every High-confidence target back into the
// recursive disassembler as a new root until nothing new is learned.
//
// The output is a TargetSet: per-indirect-site candidate targets tagged
// High/Medium/Low, plus the recovered jump-table extents. Consumers:
//
//   - internal/cfg completes successor edges from High-confidence sites
//     (Block.ResolvedTargets);
//   - the CHBP/Safer/ARMore rewriters statically patch code reachable
//     only through resolved targets, keeping the trap fallback for the
//     rest;
//   - internal/kernel counts the runtime-rewrite faults the static
//     patches avoided.
//
// Confidence semantics (see DESIGN.md §11): a site is High (Exhaustive)
// only when the rule engine can argue the candidate set covers every
// dynamic target — a proven-bounds jump-table slice whose table is
// read-only or whose entries are all symbol anchors, or a direct
// constant materialization. Medium candidates are well-formed but not
// provably complete (signed bounds, writable unanchored tables, rodata
// code-pointer constants); Low candidates are plausible pointers found
// in writable data. Only High targets drive disassembly roots and
// static patching; the fuzz soundness oracle (internal/fuzz, resolve
// axis) asserts the High/Exhaustive claim dynamically.
package resolve

import (
	"fmt"
	"sort"

	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/obj"
)

// Tier is the confidence tier of a recovered target.
type Tier uint8

// Confidence tiers, ordered so higher is more confident.
const (
	TierLow Tier = iota + 1
	TierMedium
	TierHigh
)

func (t Tier) String() string {
	switch t {
	case TierHigh:
		return "high"
	case TierMedium:
		return "medium"
	case TierLow:
		return "low"
	}
	return "none"
}

// Target is one candidate target of an indirect site.
type Target struct {
	Addr uint64
	Tier Tier
	// Rule names the derivation that produced the candidate, for
	// inspection (chimera-dis -resolve) and tests.
	Rule string
}

// Table is a recovered jump-table extent.
type Table struct {
	Base     uint64 // address of the first entry
	Stride   int    // bytes per entry (4 or 8)
	Count    int    // number of entries
	Section  string // section holding the table
	Writable bool   // table lies in writable data
}

// End returns the first address past the table.
func (t Table) End() uint64 { return t.Base + uint64(t.Count*t.Stride) }

// Site is one indirect-jump site (a jalr that is not a plain return).
type Site struct {
	Addr uint64
	Call bool // rd == ra (indirect call, falls through)
	// Exhaustive reports that Targets provably covers every address this
	// site can dynamically branch to. Only exhaustive sites are patched
	// statically; the fuzz oracle treats a dynamic target outside the
	// set of an exhaustive site as a soundness bug.
	Exhaustive bool
	Targets    []Target
	Table      *Table // backing jump table, when the site was sliced
}

// Tier returns the best tier among the site's candidates.
func (s *Site) Tier() Tier {
	best := Tier(0)
	for _, t := range s.Targets {
		if t.Tier > best {
			best = t.Tier
		}
	}
	return best
}

// HighTargets returns the sorted High-confidence targets of the site.
func (s *Site) HighTargets() []uint64 {
	var out []uint64
	for _, t := range s.Targets {
		if t.Tier == TierHigh {
			out = append(out, t.Addr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TargetSet is the resolver's result for one image.
type TargetSet struct {
	// Sites maps the address of each indirect site to its candidates.
	Sites map[uint64]*Site
	// Tables lists recovered jump-table extents, sorted by base.
	Tables []Table
	// Dis is the completed disassembly of the final fixpoint iteration:
	// recursive descent seeded with every High-confidence target.
	Dis *dis.Result
	// Plain is the first iteration's disassembly: plain recursive descent
	// from the entry point and function symbols, as dis.Disassemble
	// returns it. Every instruction of Plain is in Dis.
	Plain *dis.Result
	// Iters is the number of macro fixpoint iterations that ran.
	Iters int
	// FactCounts tallies the relational facts extracted on the final
	// iteration, keyed by fact name (materialization, bound, slice,
	// code-pointer, anchor).
	FactCounts map[string]int
}

// Site returns the site record at pc, or nil.
func (ts *TargetSet) Site(pc uint64) *Site { return ts.Sites[pc] }

// Recovered reports, for each instruction of Dis (indexed like
// Dis.Order), whether only resolved targets reach it: it is missing from
// Plain.
func (ts *TargetSet) Recovered() []bool {
	out := make([]bool, len(ts.Dis.Order))
	j := 0
	for i, a := range ts.Dis.Order {
		for j < len(ts.Plain.Order) && ts.Plain.Order[j] < a {
			j++
		}
		out[i] = j == len(ts.Plain.Order) || ts.Plain.Order[j] != a
	}
	return out
}

// RecoveredInsts counts the instructions only resolved targets reach.
func (ts *TargetSet) RecoveredInsts() int { return len(ts.Dis.Order) - len(ts.Plain.Order) }

// Roots returns the sorted, deduplicated set of High-confidence targets
// across all sites: the addresses recursive disassembly should treat as
// extra roots.
func (ts *TargetSet) Roots() []uint64 {
	seen := make(map[uint64]bool)
	var out []uint64
	for _, s := range ts.Sites {
		for _, t := range s.Targets {
			if t.Tier == TierHigh && !seen[t.Addr] {
				seen[t.Addr] = true
				out = append(out, t.Addr)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Summary aggregates a TargetSet for telemetry and reporting.
type Summary struct {
	Sites           int `json:"sites"`
	SitesHigh       int `json:"sites_high"`
	SitesMedium     int `json:"sites_medium"`
	SitesLow        int `json:"sites_low"`
	SitesUnresolved int `json:"sites_unresolved"`
	Targets         int `json:"targets"`
	TargetsHigh     int `json:"targets_high"`
	TargetsMedium   int `json:"targets_medium"`
	TargetsLow      int `json:"targets_low"`
	Tables          int `json:"tables"`
	TableEntries    int `json:"table_entries"`
	Iters           int `json:"iters"`
}

// Summary computes aggregate counts over the TargetSet.
func (ts *TargetSet) Summary() Summary {
	sum := Summary{Iters: ts.Iters}
	for _, s := range ts.Sites {
		sum.Sites++
		switch s.Tier() {
		case TierHigh:
			sum.SitesHigh++
		case TierMedium:
			sum.SitesMedium++
		case TierLow:
			sum.SitesLow++
		default:
			sum.SitesUnresolved++
		}
		for _, t := range s.Targets {
			sum.Targets++
			switch t.Tier {
			case TierHigh:
				sum.TargetsHigh++
			case TierMedium:
				sum.TargetsMedium++
			case TierLow:
				sum.TargetsLow++
			}
		}
	}
	sum.Tables = len(ts.Tables)
	for _, t := range ts.Tables {
		sum.TableEntries += t.Count
	}
	return sum
}

func (sum Summary) String() string {
	return fmt.Sprintf("sites=%d (high=%d medium=%d low=%d unresolved=%d) targets=%d tables=%d entries=%d iters=%d",
		sum.Sites, sum.SitesHigh, sum.SitesMedium, sum.SitesLow, sum.SitesUnresolved,
		sum.Targets, sum.Tables, sum.TableEntries, sum.Iters)
}

// maxFixpointIters bounds the macro disassemble→analyze loop. Each
// productive iteration discovers at least one new High target, and real
// programs nest dispatch only a few levels deep.
const maxFixpointIters = 8

// Resolve extracts facts from the image and runs the rule engine to a
// fixpoint. Every High-confidence target recovered on one iteration
// seeds the recursive disassembler on the next, so dispatch arms hidden
// behind jump tables — and any nested dispatch inside them — are
// analyzed too. Each iteration extends the previous disassembly with the
// new roots instead of starting over, so every instruction is decoded
// once per run. The loop stops when an iteration learns no new root.
func Resolve(img *obj.Image) *TargetSet {
	ptrs := scanCodePointers(img)
	plain := dis.Disassemble(img)
	d := plain
	known := make(map[uint64]bool)
	var ts *TargetSet
	for iter := 1; ; iter++ {
		ts = analyze(img, d, ptrs)
		ts.Dis, ts.Plain, ts.Iters = d, plain, iter
		var fresh []uint64
		for _, r := range ts.Roots() {
			if !known[r] {
				known[r] = true
				fresh = append(fresh, r)
			}
		}
		if len(fresh) == 0 || iter == maxFixpointIters {
			return ts
		}
		d = d.Extend(fresh)
	}
}
