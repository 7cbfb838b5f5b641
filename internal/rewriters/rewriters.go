// Package rewriters is the one dispatch point for binary rewriting: the
// paper's pipeline, CHBP, and the baselines it is evaluated against (§6.2)
// all run through Rewrite under one Config. The baselines are
// ARMore-style binary patching (relocate everything, fill the original
// text with single-instruction trampolines, trap where one jump cannot
// reach), Safer-style binary regeneration (relocate everything, check
// every indirect jump at run time), and the strawman all-trap patcher
// (CHBP with trap entries).
//
// All methods emit chbp.Tables so the simulated kernel handles their
// runtime needs uniformly, and Output.Variant is the only place a rewrite
// becomes a runnable kernel.Variant.
package rewriters

import (
	"fmt"
	"slices"

	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/resolve"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// Methods lists the rewriters in the paper's presentation order.
var Methods = []string{"strawman", "safer", "armore", "chbp"}

// CheckMethod returns nil when method names a rewriter, else an error
// listing the valid names.
func CheckMethod(method string) error {
	if slices.Contains(Methods, method) {
		return nil
	}
	return fmt.Errorf("unknown method %q (want one of %v)", method, Methods)
}

// Config selects a rewriter and its options.
type Config struct {
	Method           string    // one of Methods
	Target           riscv.Ext // ISA of the core the output must run on
	EmptyPatch       bool      // §6.2 methodology: replicate sources
	DisableExitShift bool      // ablation A2 (chbp, strawman)
	DisableBatching  bool      // ablation A3 (chbp, strawman)
	DisableUpgrade   bool      // no idiom upgrading (chbp, strawman)
	// Resolve runs the static indirect-target resolver first: CHBP
	// pre-materializes fault-table rows for recovered jump-table arms,
	// Safer/ARMore regenerate the recovered code and (for Safer) skip the
	// translation-table penalty on resolved targets.
	Resolve bool
}

// Canonical returns c with the options its method ignores zeroed, so two
// configs that produce the same rewrite compare equal. The regeneration
// baselines have no exit shifting, batching or upgrade switch.
func (c Config) Canonical() Config {
	if c.Method == "safer" || c.Method == "armore" {
		c.DisableExitShift, c.DisableBatching, c.DisableUpgrade = false, false, false
	}
	return c
}

// Output is a completed rewrite.
type Output struct {
	Image  *obj.Image
	Tables *chbp.Tables
	// AddrMap maps original to relocated instruction addresses (Safer and
	// ARMore). The kernel uses it to move a migrating pc into the view.
	AddrMap map[uint64]uint64
	// Resolved is the set of High-confidence indirect targets (original
	// addresses) the resolver recovered, when the rewrite was seeded with
	// one (Safer and ARMore). Safer's check hook skips the translation
	// table-path penalty for them.
	Resolved map[uint64]bool
	Stats    Stats
	// saferChecks marks a Safer regeneration, whose indirect jumps are
	// checked at run time.
	saferChecks bool
}

// Stats is what a rewrite reports, a union across methods: fields a
// method does not set stay zero and off the wire. CHBP and strawman fill
// the embedded chbp.Stats; Safer and ARMore fill the fields above it plus
// RecoveredInsts and ResolvedTargets.
type Stats struct {
	Trampolines     int `json:"trampolines,omitempty"`      // single-inst trampolines placed (ARMore)
	TrapTrampolines int `json:"trap_trampolines,omitempty"` // trampolines that had to be trap-based
	Insts           int `json:"insts,omitempty"`            // instructions regenerated
	NewCodeBytes    int `json:"new_code_bytes,omitempty"`
	chbp.Stats
	// Resolve is the per-tier site/target breakdown of the resolver pass
	// (Config.Resolve).
	Resolve *resolve.Summary `json:"resolve,omitempty"`
}

// Rewrite rewrites img under c. The resolver runs at most once and its
// TargetSet seeds whichever rewriter c names. Adversarial images come back
// as ErrRewriteReject, never as a panic; an unknown method is a plain
// error.
func Rewrite(img *obj.Image, c Config) (out *Output, err error) {
	if err := CheckMethod(c.Method); err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("%w: %s: panic: %v", ErrRewriteReject, c.Method, r)
		}
	}()
	var ts *resolve.TargetSet
	if c.Resolve {
		ts = resolve.Resolve(img)
	}
	switch c.Method {
	case "safer":
		out, err = SaferWith(img, c.Target, c.EmptyPatch, ts)
	case "armore":
		out, err = ARMoreWith(img, c.Target, c.EmptyPatch, ts)
	default: // chbp, strawman
		opts := chbp.Options{
			TargetISA:        c.Target,
			EmptyPatch:       c.EmptyPatch,
			DisableExitShift: c.DisableExitShift,
			DisableBatching:  c.DisableBatching,
			DisableUpgrade:   c.DisableUpgrade,
		}
		if c.Method == "strawman" {
			opts.Trampoline = chbp.TrapEntry
		}
		var res *chbp.Result
		if res, err = chbp.RewriteWith(img, opts, ts); err == nil {
			out = &Output{Image: res.Image, Tables: res.Tables, Stats: Stats{Stats: res.Stats}}
		}
	}
	if err != nil {
		return nil, err
	}
	if ts != nil {
		sum := ts.Summary()
		out.Stats.Resolve = &sum
	}
	return out, nil
}

// Variant is the rewrite as a runnable view for the kernel. Safer and
// ARMore views carry the address map; Safer's also installs the runtime
// pointer-check hook with the resolver's statically encoded targets.
func (o *Output) Variant() kernel.Variant {
	v := kernel.Variant{ISA: o.Image.ISA, Image: o.Image, Tables: o.Tables, AddrMap: o.AddrMap}
	if o.saferChecks {
		v.SaferChecks, v.SaferResolved = true, o.Resolved
	}
	return v
}
