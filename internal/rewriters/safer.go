package rewriters

import (
	"errors"
	"fmt"

	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/resolve"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/translate"
)

// ErrRewriteReject is the typed reject every rewriter entry point in this
// package returns for adversarial inputs: recovered panics and
// image-dependent analysis or regeneration failures. It aliases the chbp
// error so errors.Is works across both packages.
var ErrRewriteReject = chbp.ErrRewriteReject

// reject folds a recovered panic or a returned error into ErrRewriteReject;
// deferred at every regeneration entry point.
func reject(name string, out **Output, err *error) {
	if r := recover(); r != nil {
		*out, *err = nil, fmt.Errorf("%w: %s: panic: %v", ErrRewriteReject, name, r)
		return
	}
	if *err != nil && !errors.Is(*err, ErrRewriteReject) {
		*out, *err = nil, fmt.Errorf("%w: %s: %v", ErrRewriteReject, name, *err)
	}
}

// SaferWith rewrites an image the way the Safer regeneration baseline
// does: all code is regenerated at new addresses with direct control flow
// fixed statically; every indirect jump is checked at run time and its
// target translated from the original address space. The original code
// section is dropped from the executable mapping — regeneration keeps no
// trampolines.
//
// A resolver TargetSet (from resolve.Resolve on the same image; nil means
// none) completes the disassembly with every High-confidence indirect
// target, so code reachable only through jump tables is regenerated too
// instead of being dropped with the original text. Resolved targets are
// also statically encoded (chbp.Tables.Encoded), shrinking Safer's runtime
// translation tables: the kernel's pointer check skips the table-path
// penalty for them.
func SaferWith(img *obj.Image, targetISA riscv.Ext, emptyPatch bool, ts *resolve.TargetSet) (out *Output, err error) {
	defer reject("safer", &out, &err)
	d, recovered := disassembly(img, ts)
	resolved := resolvedTargets(ts)
	vregAddr, newBase := newLayout(img)
	rel, err := relocateAll(d, relocOptions{
		targetISA:  targetISA,
		emptyPatch: emptyPatch,
		newBase:    newBase,
		ctx:        &translate.Context{VRegBase: vregAddr},
	})
	if err != nil {
		return nil, err
	}

	rw := img.Clone()
	rw.Name = img.Name + ".safer"
	// Regeneration: the original text stops being executable; stale code
	// pointers that escape the runtime check fault deterministically, which
	// mirrors Safer's "detect but cannot correct" behavior.
	for _, s := range rw.Sections {
		if s.Perm&obj.PermX != 0 {
			s.Perm = obj.PermR
		}
	}

	tables := chbp.NewTables(img.GP)
	for addr, resume := range rel.trapResume {
		tables.ExitTrap[addr] = resume
	}
	tables.TargetStart, tables.TargetEnd = newBase, rel.newEnd
	tables.AddrMap, tables.CheckIndirect, tables.Encoded = rel.addrMap, true, resolved

	rw.AddSection(&obj.Section{Name: obj.SecVRegFile, Addr: vregAddr,
		Data: make([]byte, translate.VRegFileSize), Perm: obj.PermRW})
	rw.AddSection(&obj.Section{Name: obj.SecTarget, Addr: newBase,
		Data: rel.code, Perm: obj.PermRX})
	rw.AddSection(&obj.Section{Name: obj.SecFaultTab,
		Addr: obj.AlignUp(rel.newEnd+1, obj.PageSize), Data: tables.Marshal(), Perm: obj.PermR})

	entry, ok := rel.addrMap[img.Entry]
	if !ok {
		return nil, fmt.Errorf("rewriters: entry %#x not relocated", img.Entry)
	}
	rw.Entry = entry
	if !emptyPatch {
		rw.ISA = targetISA
	}
	if err := rw.Validate(); err != nil {
		return nil, err
	}
	out = &Output{Image: rw, Stats: Stats{Insts: len(d.Order), NewCodeBytes: len(rel.code)}}
	out.Stats.RecoveredInsts, out.Stats.ResolvedTargets = recovered, len(resolved)
	return out, nil
}

// disassembly returns the code the baselines relocate — the resolver's
// completed disassembly when there is one, else the plain one — and how
// many instructions only resolved targets reach.
func disassembly(img *obj.Image, ts *resolve.TargetSet) (*dis.Result, int) {
	if ts == nil {
		return dis.Disassemble(img), 0
	}
	return ts.Dis, ts.RecoveredInsts()
}

// resolvedTargets collects the High-confidence targets of a TargetSet as
// a set of original addresses, or nil.
func resolvedTargets(ts *resolve.TargetSet) map[uint64]bool {
	if ts == nil {
		return nil
	}
	out := make(map[uint64]bool)
	for _, s := range ts.Sites {
		for _, t := range s.Targets {
			if t.Tier == resolve.TierHigh {
				out[t.Addr] = true
			}
		}
	}
	return out
}
