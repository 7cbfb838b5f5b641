package chbp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/eurosys26p57/chimera/internal/cfg"
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/liveness"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/resolve"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/translate"
)

// Options configures a rewrite. The zero value (plus a TargetISA) gives the
// paper's full CHBP: SMILE trampolines, exit-position shifting, and
// basic-block batching enabled.
type Options struct {
	// TargetISA is the extension set of the core the rewritten binary must
	// run on. Instructions outside it are downgraded; idioms upgradable to
	// extensions in it (that the original lacks) are upgraded.
	TargetISA riscv.Ext
	// Trampoline selects SMILE (default) or the strawman all-trap entry.
	Trampoline TrampolineKind
	// DisableExitShift turns off exit-position shifting (ablation A2).
	DisableExitShift bool
	// DisableBatching turns off basic-block batching (ablation A3).
	DisableBatching bool
	// DisableUpgrade turns off idiom upgrading even when the target ISA has
	// spare extensions.
	DisableUpgrade bool
	// EmptyPatch replicates source instructions instead of translating them
	// (the §6.2 evaluation methodology: overhead comes only from rewriting).
	EmptyPatch bool
	// Resolve runs the static indirect-target resolver (internal/resolve)
	// first and rewrites the code it recovers: sites in recovered regions
	// get their fault-table rows pre-materialized behind trap entries, so
	// jump-table arms that would otherwise be runtime-rewritten fault by
	// fault (§4.3) are translated ahead of time.
	Resolve bool
}

// Bounds of two CHBP optimizations: exit-position shifting appends at most
// maxShift instructions to a region (§4.2, Fig. 8), and batching copies at
// most maxBatchGap non-source instructions between two sources, and as
// many into a batch's tail.
const (
	maxShift    = 16
	maxBatchGap = 10
)

// Stats reports what the rewrite did — the Table 3 columns plus internals.
// The JSON names are the service's wire names; internals the service does
// not report are left off the wire.
type Stats struct {
	CodeSize    int     `json:"-"`                      // original executable bytes
	TotalInsts  int     `json:"total_insts,omitempty"`  // recognized instructions
	SourceInsts int     `json:"source_insts,omitempty"` // instructions needing rewrite
	ExtPct      float64 `json:"ext_pct,omitempty"`      // SourceInsts / TotalInsts * 100

	Sites        int `json:"sites,omitempty"` // patch sites (trampolines placed)
	SmileEntries int `json:"smile_entries,omitempty"`
	TrapEntries  int `json:"trap_entries,omitempty"` // entry via ebreak (space not found / strawman)
	TrapExits    int `json:"trap_exits,omitempty"`   // exits via ebreak (no dead register even after shifting)

	DeadRegFailTraditional int `json:"-"` // sites where plain liveness found no dead register
	DeadRegFailShifted     int `json:"-"` // sites where even exit shifting failed

	UpgradeSites int    `json:"upgrade_sites,omitempty"`
	BlockInsts   int    `json:"-"`                      // total generated target-block instructions
	PaddingBytes uint64 `json:"-"`                      // target-section bytes from the lowest block to the end that hold no block
	TargetBytes  int    `json:"target_bytes,omitempty"` // generated target-section size
	RedirectKeys int    `json:"-"`

	// Resolver integration (Options.Resolve).
	ResolvedSites        int `json:"resolved_sites,omitempty"`        // indirect sites resolved High/exhaustive
	ResolvedTargets      int `json:"resolved_targets,omitempty"`      // High-confidence targets across those sites
	RecoveredInsts       int `json:"recovered_insts,omitempty"`       // instructions reachable only through resolved targets
	PrematerializedSites int `json:"prematerialized_sites,omitempty"` // trap sites in recovered code with pre-built fault-table rows
	AvoidedRewrites      int `json:"avoided_rewrites,omitempty"`      // runtime-rewrite faults those rows avoid (unique source pcs)
}

// Result is a completed rewrite.
type Result struct {
	Image  *obj.Image
	Tables *Tables
	Stats  Stats
}

// siteSeed is a source instruction group before space scanning.
type siteSeed struct {
	start     uint64
	regionEnd uint64
	upgrade   *translate.UpgradeSite
}

// ErrRewriteReject marks an input the rewriter refused: a recovered panic
// or an image-dependent failure while analyzing or regenerating code.
// Rejects are a clean, deterministic function of the input image — callers
// (the service worker path, the evaluation matrix) treat them as "this
// binary stays original".
var ErrRewriteReject = errors.New("rewrite rejected")

// Rewrite produces a rewritten binary for the target ISA (§3.4): step 1
// generates target instructions, step 2 patches trampolines. Adversarial
// images never panic out of here: any panic or image-dependent error is
// folded into ErrRewriteReject, so callers see a typed reject instead of a
// crash.
func Rewrite(img *obj.Image, opts Options) (*Result, error) {
	return RewriteWith(img, opts, nil)
}

// RewriteWith is Rewrite seeded with a resolver TargetSet the caller
// already computed (resolve.Resolve on the same image), so one resolver
// pass can serve several consumers. A non-nil ts acts as Options.Resolve;
// with a nil ts, Options.Resolve runs the resolver here.
func RewriteWith(img *obj.Image, opts Options, ts *resolve.TargetSet) (res *Result, err error) {
	if opts.TargetISA == 0 {
		return nil, fmt.Errorf("chbp: no target ISA")
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: chbp: panic: %v", ErrRewriteReject, r)
		}
	}()
	res, err = rewrite(img, opts, ts)
	if err != nil && !errors.Is(err, ErrRewriteReject) {
		res, err = nil, fmt.Errorf("%w: %v", ErrRewriteReject, err)
	}
	return res, err
}

func rewrite(img *obj.Image, opts Options, ts *resolve.TargetSet) (*Result, error) {
	stats := Stats{CodeSize: img.CodeSize()}
	var d *dis.Result
	var g *cfg.Graph
	var recovered []bool // indexed like d.Order; nil without the resolver
	if ts == nil && opts.Resolve {
		ts = resolve.Resolve(img)
	}
	if ts != nil {
		d = ts.Dis
		recovered = ts.Recovered()
		sum := ts.Summary()
		stats.ResolvedSites = sum.SitesHigh
		stats.ResolvedTargets = sum.TargetsHigh
		stats.RecoveredInsts = ts.RecoveredInsts()
		g = cfg.BuildResolved(d, ts)
	} else {
		d = dis.Disassemble(img)
		g = cfg.Build(d)
	}
	// lenAt is the length of the recognized instruction at a.
	lenAt := func(a uint64) uint64 {
		in, _ := d.At(a)
		return uint64(in.Len)
	}
	la := liveness.Analyze(g)
	compressed := img.ISA.Has(riscv.ExtC)

	stats.TotalInsts = len(d.Order)

	// ---- Identify sources -------------------------------------------------
	isSource := func(in riscv.Inst) bool {
		if opts.EmptyPatch {
			return in.Extension() == riscv.ExtV
		}
		return !opts.TargetISA.Has(in.Extension())
	}
	sew := resolveSEW(d)

	var sources []int // indices of the source instructions
	for i, in := range d.Insts {
		if isSource(in) {
			sources = append(sources, i)
		}
	}
	stats.SourceInsts = len(sources)
	if stats.TotalInsts > 0 {
		stats.ExtPct = 100 * float64(stats.SourceInsts) / float64(stats.TotalInsts)
	}

	// ---- Upgrade sites ----------------------------------------------------
	var seeds []siteSeed
	upgradeTaken := make([]bool, len(d.Order)) // indexed like d.Order
	take := func(u *translate.UpgradeSite) {
		for _, a := range u.Addrs {
			i, _ := d.Index(a)
			upgradeTaken[i] = true
		}
	}
	if !opts.DisableUpgrade && !opts.EmptyPatch {
		for _, u := range translate.MatchUpgrades(d) {
			if !replacementFits(u.Replacement, opts.TargetISA) {
				continue
			}
			if anyIsSource(d, u.Addrs, isSource) {
				continue // overlaps downgrade work; let downgrading win
			}
			uc := u
			last := u.Addrs[len(u.Addrs)-1]
			seeds = append(seeds, siteSeed{start: u.Addrs[0], regionEnd: last + lenAt(last), upgrade: &uc})
			take(&uc)
			stats.UpgradeSites++
		}
	}

	// ---- Downgrade idiom sites ---------------------------------------------
	// Block-level translation templates for canonical vector loops: the
	// whole strip-mined loop becomes one scalar loop in the target block,
	// keeping downgraded code near scalar-native speed (§4.1 templates).
	if !opts.EmptyPatch && img.ISA.Has(riscv.ExtV) && !opts.TargetISA.Has(riscv.ExtV) {
		for _, u := range translate.MatchVectorDowngrades(d) {
			if !replacementFits(u.Replacement, opts.TargetISA) {
				continue
			}
			if slices.ContainsFunc(u.Addrs, func(a uint64) bool {
				i, _ := d.Index(a)
				return upgradeTaken[i]
			}) {
				continue
			}
			uc := u
			last := u.Addrs[len(u.Addrs)-1]
			seeds = append(seeds, siteSeed{start: u.Addrs[0], regionEnd: last + lenAt(last), upgrade: &uc})
			take(&uc)
		}
	}

	// ---- Downgrade batches ------------------------------------------------
	batchEnd := computeBatches(d, sources, opts)
	for k, i := range sources {
		if upgradeTaken[i] {
			continue
		}
		seeds = append(seeds, siteSeed{start: d.Order[i], regionEnd: batchEnd[k]})
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].start < seeds[j].start })

	// ---- Space scanning & region assembly ---------------------------------
	rw := img.Clone()
	rw.Name = img.Name + ".chbp"

	// The simulated vector register file and the target section go after all
	// existing sections.
	highest := uint64(0)
	for _, s := range rw.Sections {
		if s.End() > highest {
			highest = s.End()
		}
	}
	vregAddr := obj.AlignUp(highest, obj.PageSize)
	targetBase := obj.AlignUp(vregAddr+translate.VRegFileSize, obj.PageSize)
	ctx := &translate.Context{VRegBase: vregAddr}

	var sites []*patchSite
	covered := uint64(0)
	for _, seed := range seeds {
		if seed.start < covered {
			continue // inside a previous site's overwritten space
		}
		site := &patchSite{start: seed.start, upgrade: seed.upgrade}
		seedIdx, _ := d.Index(seed.start)
		switch {
		case recovered != nil && recovered[seedIdx]:
			// Resolver-recovered code: pre-materialize the fault-table row
			// behind a trap entry. The trap is fail-safe — if the static
			// resolution were ever wrong about this region, a stray landing
			// raises SIGTRAP instead of executing a half-patched SMILE pair
			// — and keeps the site visible to the kernel, which counts the
			// runtime-rewrite faults the pre-built row avoids.
			site.trapOnly = true
			site.resolved = true
			site.spaceEnd = seed.start + lenAt(seed.start)
		case opts.Trampoline == TrapEntry:
			site.trapOnly = true
			site.spaceEnd = seed.start + lenAt(seed.start)
		case opts.Trampoline == GeneralReg:
			// Fig. 5: overwrite a preceding lui+memory pair, jumping through
			// the register that holds the data address.
			luiAddr, reg, ok := findMemPair(d, seedIdx, covered)
			if !ok {
				site.trapOnly = true
				site.spaceEnd = seed.start + lenAt(seed.start)
				break
			}
			site.start = luiAddr
			site.spaceEnd = luiAddr + 8
			site.genReg = reg
		default:
			spaceEnd, ok := scanSpace(d, seed.start)
			if !ok {
				site.trapOnly = true
				site.spaceEnd = seed.start + lenAt(seed.start)
				break
			}
			site.spaceEnd = spaceEnd
		}
		site.regionEnd = seed.regionEnd
		if site.spaceEnd > site.regionEnd {
			site.regionEnd = site.spaceEnd
		}
		region, err := collectRegion(d, site.start, site.regionEnd, isSource, sew, upgradeTaken)
		if err != nil {
			// Fall back to the smallest viable trap site.
			site.trapOnly = true
			site.spaceEnd = seed.start + lenAt(seed.start)
			site.regionEnd = site.spaceEnd
			if seed.upgrade != nil {
				last := seed.upgrade.Addrs[len(seed.upgrade.Addrs)-1]
				site.regionEnd = last + lenAt(last)
			}
			region, err = collectRegion(d, site.start, site.regionEnd, isSource, sew, upgradeTaken)
			if err != nil {
				return nil, fmt.Errorf("chbp: site at %#x unbuildable: %w", seed.start, err)
			}
		}
		site.region = region
		covered = site.spaceEnd
		sites = append(sites, site)
	}

	// ---- Build target blocks ----------------------------------------------
	env := &exitEnv{
		la:   la,
		next: func(a uint64) (riscv.Inst, bool) { return d.At(a) },
		isSource: func(a uint64) bool {
			in, ok := d.At(a)
			return ok && isSource(in)
		},
		enableShift: !opts.DisableExitShift,
	}
	for _, site := range sites {
		res, err := buildSiteBlock(site, img.GP, env, ctx, opts.EmptyPatch)
		if err != nil {
			return nil, err
		}
		if res.deadRegFailTraditional {
			stats.DeadRegFailTraditional++
		}
		if res.deadRegFailShifted {
			stats.DeadRegFailShifted++
		}
		stats.TrapExits += res.trapExits
	}

	// ---- Layout & patching -------------------------------------------------
	tables := NewTables(img.GP)
	avoidedSources := make(map[uint64]bool)
	reqs := make([]blockReq, len(sites))
	for i, site := range sites {
		reqs[i] = blockReq{site: site.start, size: uint64(4 * len(site.block.insts)),
			constrained: compressed && !site.trapOnly && site.genReg == 0}
		stats.BlockInsts += len(site.block.insts)
	}
	addrs := packBlocks(targetBase, reqs)
	targetStart, targetEnd := targetBase, targetBase
	if len(addrs) > 0 {
		lowest := slices.Min(addrs)
		for i, addr := range addrs {
			targetEnd = max(targetEnd, addr+reqs[i].size)
		}
		targetStart = lowest &^ (obj.PageSize - 1)
		stats.PaddingBytes = targetEnd - lowest - uint64(4*stats.BlockInsts)
	}
	targetData := make([]byte, targetEnd-targetStart)

	// First pass: the fault-handling table needs every block address before
	// exit targets can be resolved — an exit may resume at an address that a
	// *later* site's trampoline overwrote, in which case it must jump
	// straight to the relocated copy instead of faulting on every pass.
	for i, site := range sites {
		for orig, idx := range site.block.keys {
			if site.genReg != 0 {
				// Fig. 5 recovery cannot restore the pair register (its
				// static value is unknown to the kernel); redirect to the
				// copied lui instead, which re-establishes it. Re-executing
				// the lui is idempotent.
				idx = site.block.pos[site.start]
			}
			tables.Redirect[orig] = addrs[i] + uint64(4*idx)
		}
	}
	remap := func(addr uint64) uint64 {
		if to, ok := tables.Redirect[addr]; ok {
			return to
		}
		return addr
	}

	for i, site := range sites {
		T := addrs[i]
		// Resolve exit fixups now that the block addresses are known.
		for _, f := range site.block.fixes {
			a := T + uint64(4*f.idx)
			pair, err := encodeVanilla(a, remap(f.target), site.block.insts[f.idx].Rd)
			if err != nil {
				return nil, err
			}
			site.block.insts[f.idx] = pair[0]
			site.block.insts[f.idx+1] = pair[1]
		}
		// Emit block bytes.
		for i, in := range site.block.insts {
			w, err := riscv.Encode(in)
			if err != nil {
				return nil, fmt.Errorf("chbp: encoding %v in block at %#x: %w", in, T, err)
			}
			binary.LittleEndian.PutUint32(targetData[T-targetStart+uint64(4*i):], w)
		}
		// Patch the entry.
		switch {
		case site.trapOnly:
			stats.TrapEntries++
			if err := writeTrap(rw, site.start, int(lenAt(site.start))); err != nil {
				return nil, err
			}
			tables.Trap[site.start] = T
			if site.resolved {
				// Each unique source pc in the region would have been one
				// runtime-rewrite fault (RuntimeRewriteCost apiece) without
				// the resolver; the kernel credits the count on first entry.
				// Consecutive sites' regions overlap (each keeps its own
				// trampoline but extends over the shared batch), so the
				// per-site table rows count their own region while the
				// stats total dedups by source pc.
				avoided := uint64(0)
				for _, item := range site.region {
					if isSource(item.inst) {
						avoided++
						if !avoidedSources[item.addr] {
							avoidedSources[item.addr] = true
							stats.AvoidedRewrites++
						}
					}
				}
				tables.Resolved[site.start] = avoided
				stats.PrematerializedSites++
			}
		case site.genReg != 0:
			stats.SmileEntries++
			smile, err := EncodeGeneralSmile(site.start, T, site.genReg)
			if err != nil {
				return nil, fmt.Errorf("chbp: general smile at %#x: %w", site.start, err)
			}
			if err := rw.WriteAt(site.start, smile[:]); err != nil {
				return nil, err
			}
			tables.Spaces[site.start] = site.spaceEnd
		default:
			stats.SmileEntries++
			smile, err := EncodeSmile(site.start, T, compressed)
			if err != nil {
				return nil, fmt.Errorf("chbp: smile at %#x: %w", site.start, err)
			}
			if err := rw.WriteAt(site.start, smile[:]); err != nil {
				return nil, err
			}
			if err := padNops(rw, site.start+8, site.spaceEnd, compressed); err != nil {
				return nil, err
			}
			tables.Spaces[site.start] = site.spaceEnd
		}
		// Tables. (Redirect was filled in the first pass.)
		for idx, resume := range site.block.trapExits {
			tables.ExitTrap[T+uint64(4*idx)] = remap(resume)
		}
		if site.block.normalResume != 0 {
			tables.ExitOf[T] = site.block.normalResume
		}
	}
	stats.Sites = len(sites)
	stats.RedirectKeys = len(tables.Redirect)
	stats.TargetBytes = len(targetData)
	tables.TargetStart, tables.TargetEnd = targetStart, targetEnd

	// ---- Assemble the rewritten image --------------------------------------
	rw.AddSection(&obj.Section{Name: obj.SecVRegFile, Addr: vregAddr,
		Data: make([]byte, translate.VRegFileSize), Perm: obj.PermRW})
	if len(targetData) > 0 {
		rw.AddSection(&obj.Section{Name: obj.SecTarget, Addr: targetStart,
			Data: targetData, Perm: obj.PermRX})
	}
	rw.AddSection(&obj.Section{Name: obj.SecFaultTab,
		Addr: obj.AlignUp(targetEnd+1, obj.PageSize), Data: tables.Marshal(), Perm: obj.PermR})
	if !opts.EmptyPatch {
		rw.ISA = opts.TargetISA
	}
	if err := rw.Validate(); err != nil {
		return nil, fmt.Errorf("chbp: rewritten image invalid: %w", err)
	}
	return &Result{Image: rw, Tables: tables, Stats: stats}, nil
}

// resolveSEW assigns the element width in effect at each instruction
// (indexed like d.Order) by a linear sweep tracking the most recent
// vsetvli — the static vector configuration compilers emit per block makes
// this exact in practice.
func resolveSEW(d *dis.Result) []riscv.SEW {
	out := make([]riscv.SEW, len(d.Insts))
	cur := riscv.E64
	for i, in := range d.Insts {
		if in.Op == riscv.VSETVLI {
			cur = riscv.SEWOf(in.Imm)
		}
		out[i] = cur
	}
	return out
}

func replacementFits(repl []riscv.Inst, isa riscv.Ext) bool {
	for _, in := range repl {
		if !isa.Has(in.Extension()) {
			return false
		}
	}
	return true
}

func anyIsSource(d *dis.Result, addrs []uint64, isSource func(riscv.Inst) bool) bool {
	for _, a := range addrs {
		if in, ok := d.At(a); ok && isSource(in) {
			return true
		}
	}
	return false
}

// computeBatches groups source instructions separated only by relocatable,
// non-control instructions (§4.2's batching optimization), then extends each
// batch through the following straight-line tail up to and including its
// control-flow terminator. A loop whose body a batch covers then closes
// inside the target block with no per-iteration trampoline crossing.
// Members keep their own trampolines for external entries, and mid-batch
// jump targets are covered by the fault-handling table, so fusing across
// basic-block leaders is sound. It returns, per source, the end address of
// the region its site should cover. sources are instruction indices,
// ascending; the result is parallel to them.
func computeBatches(d *dis.Result, sources []int, opts Options) []uint64 {
	end := make([]uint64, len(sources))
	selfEnd := func(i int) uint64 { return d.Order[i] + uint64(d.Insts[i].Len) }
	for k, i := range sources {
		end[k] = selfEnd(i)
	}
	if opts.DisableBatching {
		return end
	}
	for i := 0; i < len(sources); {
		j := i
		for j+1 < len(sources) && gapRelocatable(d, selfEnd(sources[j]), d.Order[sources[j+1]], maxBatchGap) {
			j++
		}
		batchEnd := selfEnd(sources[j])
		// Tail extension: copy the run up to (and including) the next
		// control-flow instruction.
		a, n := batchEnd, 0
		for n < maxBatchGap {
			in, ok := d.At(a)
			if !ok {
				break
			}
			reloc, mustLast := relocatable(in)
			if !reloc {
				break
			}
			a += uint64(in.Len)
			n++
			if mustLast || in.IsControl() {
				batchEnd = a
				break
			}
		}
		for k := i; k <= j; k++ {
			end[k] = batchEnd
		}
		i = j + 1
	}
	return end
}

// gapRelocatable reports whether all instructions in [from, to) are
// relocatable non-control instructions, at most max of them.
func gapRelocatable(d *dis.Result, from, to uint64, max int) bool {
	n := 0
	for a := from; a < to; {
		in, ok := d.At(a)
		if !ok {
			return false
		}
		if ok, mustLast := relocatable(in); !ok || mustLast {
			return false
		}
		if n++; n > max {
			return false
		}
		a += uint64(in.Len)
	}
	return true
}

// findMemPair scans backward from the instruction at index idx (up to 12
// instructions, staying above floor) for an adjacent "lui rX, imm ;
// load/store rY, off(rX)" pair of 4-byte instructions whose following run
// up to it is relocatable — the Fig. 5 overwrite site.
func findMemPair(d *dis.Result, idx int, floor uint64) (uint64, riscv.Reg, bool) {
	addr := d.Order[idx]
	for back := 1; back <= 12 && idx-back-1 >= 0; back++ {
		loadAt := d.Order[idx-back]
		luiAt := d.Order[idx-back-1]
		if luiAt < floor {
			return 0, 0, false
		}
		lui := d.Insts[idx-back-1]
		mem := d.Insts[idx-back]
		if lui.Op != riscv.LUI || lui.Len != 4 || mem.Len != 4 || luiAt+4 != loadAt {
			continue
		}
		if lui.Rd == riscv.Zero || lui.Rd == riscv.SP || mem.Rs1 != lui.Rd {
			continue
		}
		switch mem.Op {
		case riscv.LB, riscv.LH, riscv.LW, riscv.LD, riscv.LBU, riscv.LHU, riscv.LWU,
			riscv.SB, riscv.SH, riscv.SW, riscv.SD, riscv.FLW, riscv.FLD, riscv.FSW, riscv.FSD:
		default:
			continue
		}
		if !gapRelocatable(d, loadAt+4, addr, 12) {
			continue
		}
		return luiAt, lui.Rd, true
	}
	return 0, 0, false
}

// scanSpace finds the trampoline space (Fig. 4): the source instruction at
// start plus following instructions until 8 bytes are covered. Control-flow
// instructions may only complete the space, never sit inside it.
func scanSpace(d *dis.Result, start uint64) (uint64, bool) {
	addr := start
	covered := 0
	for covered < 8 {
		in, ok := d.At(addr)
		if !ok {
			return 0, false
		}
		reloc, mustLast := relocatable(in)
		if !reloc {
			return 0, false
		}
		covered += in.Len
		addr += uint64(in.Len)
		if mustLast && covered < 8 {
			return 0, false
		}
	}
	return addr, true
}

// collectRegion gathers the original instructions in [start, end).
// sew and upgradeTaken are indexed like d.Order.
func collectRegion(d *dis.Result, start, end uint64,
	isSource func(riscv.Inst) bool, sew []riscv.SEW,
	upgradeTaken []bool) ([]regionItem, error) {

	var out []regionItem
	i, ok := d.Index(start)
	for a := start; a < end; {
		if !ok {
			return nil, fmt.Errorf("unrecognized instruction at %#x", a)
		}
		in := d.Insts[i]
		src := isSource(in) && !upgradeTaken[i]
		if !src && !upgradeTaken[i] {
			// Idiom-covered instructions are replaced wholesale; only plain
			// copied instructions face relocation constraints.
			if ok, mustLast := relocatable(in); !ok {
				return nil, fmt.Errorf("unrelocatable %s at %#x", in, a)
			} else if mustLast && a+uint64(in.Len) < end {
				return nil, fmt.Errorf("control flow mid-region at %#x", a)
			}
		}
		out = append(out, regionItem{addr: a, inst: in, isSource: src, sew: sew[i]})
		a += uint64(in.Len)
		i, ok = d.Fallthrough(i)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty region at %#x", start)
	}
	return out, nil
}

// writeTrap replaces the instruction at addr with an ebreak of its length.
func writeTrap(img *obj.Image, addr uint64, length int) error {
	if length == 2 {
		var b [2]byte
		p, err := riscv.EncodeCompressed(riscv.Inst{Op: riscv.EBREAK})
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint16(b[:], p)
		return img.WriteAt(addr, b[:])
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], riscv.MustEncode(riscv.Inst{Op: riscv.EBREAK}))
	return img.WriteAt(addr, b[:])
}

// padNops fills [from, to) with nops (2-byte when the image is compressed).
func padNops(img *obj.Image, from, to uint64, compressed bool) error {
	for a := from; a < to; {
		if compressed {
			var b [2]byte
			binary.LittleEndian.PutUint16(b[:], riscv.CNop)
			if err := img.WriteAt(a, b[:]); err != nil {
				return err
			}
			a += 2
			continue
		}
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], riscv.MustEncode(riscv.Inst{Op: riscv.ADDI}))
		if err := img.WriteAt(a, b[:]); err != nil {
			return err
		}
		a += 4
	}
	return nil
}
