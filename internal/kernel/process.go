package kernel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/eurosys26p57/chimera/internal/chaos"
	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/instrument"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/translate"
)

// Variant is the content of one MMView: the rewritten (or original) binary
// a particular core class executes. The image carries its own runtime
// metadata (chbp.Tables in SecFaultTab), which NewProcess reads.
type Variant struct {
	ISA   riscv.Ext
	Image *obj.Image
}

// View is one loaded MMView: an address space instantiated from a variant,
// sharing data frames with its sibling views (§4.3, Fig. 9).
type View struct {
	isa      riscv.Ext
	img      *obj.Image
	tables   *chbp.Tables
	mem      *emu.Memory
	hook     func(pc, target uint64) (uint64, uint64)
	vregAddr uint64
	// revMap translates this view's regenerated instruction addresses back
	// to the original space, inverting tables.AddrMap (Safer-style views;
	// nil for address-preserving patched views).
	revMap map[uint64]uint64
	// runtime rewriting area
	patchBase, patchCursor, patchEnd uint64
	// secs is the image's sections with data, ordered by address: the
	// layout restorePage rebuilds a dirtied frame from.
	secs []*obj.Section
	// resolvedSeen records resolver-pre-materialized trap sites already
	// credited to Counters.RewriteFaultsAvoided. It survives Reset, like
	// the rewrites themselves.
	resolvedSeen map[uint64]bool
}

// sharedSections are mapped once and shared by reference across views.
var sharedSections = map[string]bool{
	obj.SecRodata: true,
	obj.SecData:   true,
	obj.SecSData:  true,
	obj.SecBSS:    true,
}

// FAMPolicy selects fault-and-migrate behavior: an unsupported instruction
// asks the scheduler to move the task instead of being rewritten (§2.1).
type FAMPolicy bool

// Process is a loaded program with one view per core class (§4.3).
type Process struct {
	Name string
	// CPU holds the architectural state; its Mem/ISA switch on migration.
	CPU   *emu.CPU
	views map[riscv.Ext]*View
	cur   *View
	first *View // the initial view, where Reset restarts execution

	FAM FAMPolicy

	// Chaos, when non-nil, injects spurious faults and migration demands
	// into this process's run loop (internal/chaos). Injections are
	// absorbed transparently: a chaos run must end in the same
	// architectural state as a clean one.
	Chaos *chaos.Injector

	Exited   bool
	ExitCode uint64
	// Signal is the signal that killed the process, which then exits with
	// ExitCode 128+Signal. It is 0 after a voluntary exit whatever the
	// code: a guest calling exit(139) was not killed by SIGSEGV.
	Signal int
	Output []byte

	// Input backs the read(2) syscall: sequential reads consume it from
	// inputOff, then return EOF. SetInput rearms it; Reset rewinds the
	// cursor. This is how the fuzzing service feeds test cases to a guest
	// without rebuilding the process.
	Input    []byte
	inputOff int

	Counters Counters

	// hooks is the process-owned instrumentation hook set, installed on the
	// CPU at construction. Its address never changes, so migrations and
	// resets mutate fields in place and warm translations stay valid.
	hooks instrument.Hooks

	handlers map[int]uint64 // signal number -> user handler pc
	inSignal bool
	sigFrame sigContext
	pending  []int
}

// Hooks exposes the process's instrumentation hook set for observer
// installation. After mutating observer fields (Cov/Cmp/Mem/Prof), call
// CPU.RefreshHooks so translations are keyed on the new observer set.
func (p *Process) Hooks() *instrument.Hooks { return &p.hooks }

// SetInput arms the read(2) input buffer and rewinds its cursor. The slice
// is aliased, not copied.
func (p *Process) SetInput(b []byte) {
	p.Input = b
	p.inputOff = 0
}

type sigContext struct {
	X  [32]uint64
	F  [32]uint64
	PC uint64
}

// VariantFromImage builds a Variant from a (possibly rewritten) image.
// NewProcess parses the image's embedded tables, so this never fails.
func VariantFromImage(img *obj.Image) (Variant, error) {
	return Variant{ISA: img.ISA, Image: img}, nil
}

// Safer's runtime pointer-check cost model (§2.2), charged by the hook a
// view with Tables.CheckIndirect installs: every indirect jump pays the
// inlined encoded-pointer check; a target whose encoding failed statically
// pays the translation-table path on top. One in saferUnencodedDenom
// targets models Safer's static encoding miss rate; targets the resolver
// encoded (Tables.Encoded) never miss.
const (
	saferCheckCycles    = 12
	saferTableCycles    = 28
	saferUnencodedDenom = 10
)

// saferHook translates an indirect-jump target inside the original text
// to its regenerated address and charges the check.
func saferHook(t *chbp.Tables, text *obj.Section) func(pc, target uint64) (uint64, uint64) {
	var start, end uint64
	if text != nil {
		start, end = text.Addr, text.End()
	}
	return func(pc, target uint64) (uint64, uint64) {
		cost := uint64(saferCheckCycles)
		if target >= start && target < end {
			if nt, ok := t.AddrMap[target]; ok {
				if !t.Encoded[target] && (target>>1)%saferUnencodedDenom == 0 {
					cost += saferTableCycles
				}
				return nt, cost
			}
		}
		return target, cost
	}
}

// NewProcess loads the variants into views with shared data frames and
// prepares the architectural state at the first variant's entry.
func NewProcess(name string, variants []Variant) (*Process, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("kernel: no variants")
	}
	p := &Process{
		Name:     name,
		views:    make(map[riscv.Ext]*View),
		handlers: make(map[int]uint64),
	}
	var first *View
	for _, v := range variants {
		if _, dup := p.views[v.ISA]; dup {
			return nil, fmt.Errorf("kernel: duplicate variant for %v", v.ISA)
		}
		// Each process parses its own tables: runtime rewrites add rows,
		// and they must not leak into a sibling built from the same image.
		tables, err := chbp.TablesOf(v.Image)
		if err != nil {
			return nil, fmt.Errorf("kernel: parsing embedded tables: %w", err)
		}
		mem := emu.NewMemory()
		mem.MapImage(v.Image)
		view := &View{isa: v.ISA, img: v.Image, tables: tables, mem: mem}
		for _, s := range v.Image.Sections {
			if len(s.Data) > 0 {
				view.secs = append(view.secs, s)
			}
		}
		sort.Slice(view.secs, func(i, j int) bool { return view.secs[i].Addr < view.secs[j].Addr })
		if tables != nil && tables.AddrMap != nil {
			view.revMap = make(map[uint64]uint64, len(tables.AddrMap))
			for o, n := range tables.AddrMap {
				view.revMap[n] = o
			}
		}
		if sec := v.Image.Section(obj.SecVRegFile); sec != nil {
			view.vregAddr = sec.Addr
		}
		if tables != nil && tables.CheckIndirect {
			view.hook = saferHook(tables, v.Image.Text())
		}
		// Runtime patch area: a page range above everything in this view.
		high := uint64(0)
		for _, s := range v.Image.Sections {
			if s.End() > high {
				high = s.End()
			}
		}
		view.patchBase = obj.AlignUp(high+obj.PageSize, obj.PageSize)
		view.patchCursor = view.patchBase
		view.patchEnd = view.patchBase + 1<<20
		if first == nil {
			first = view
		} else {
			// Share the data segments and the stack with the first view
			// (Fig. 9: all MMViews point at common data frames). A section
			// is shareable only when both views agree on its placement and
			// initial contents — binaries from separate compilations (MELF's
			// per-ISA versions) may embed view-local code pointers, which
			// must stay private to their view.
			for _, s := range v.Image.Sections {
				if !sharedSections[s.Name] {
					continue
				}
				ref := first.img.Section(s.Name)
				if ref == nil || ref.Addr != s.Addr || len(ref.Data) != len(s.Data) {
					continue
				}
				if !bytes.Equal(ref.Data, s.Data) {
					continue
				}
				mem.ShareFrom(first.mem, s.Addr, uint64(len(s.Data)))
			}
			mem.ShareFrom(first.mem, obj.StackTop-obj.StackSize, obj.StackSize)
		}
		p.views[v.ISA] = view
	}
	p.cur = first
	p.first = first
	p.CPU = emu.NewCPU(first.mem, first.isa)
	p.CPU.Reset(first.img)
	p.hooks.Indirect = first.hook
	p.CPU.SetHooks(&p.hooks)
	return p, nil
}

// Reset rewinds the process to its load state without rebuilding it: every
// frame a guest store dirtied since the last Reset is restored from its
// view's image (restorePage), and the architectural state returns to the
// first view's entry — but runtime rewrites (trap trampolines, patch-area
// code, trap tables) and the emulator's warm translation caches survive,
// because no bytes they depend on change and no generation moves. This is
// the steady-state shape of a long-lived server re-running the same guest:
// re-execution costs neither page mapping nor re-translation, which is
// what makes repeated runs allocation-free, and the restore costs what the
// guest touched rather than the 1 MiB stack and every writable section.
// A frame shared by several views carries one dirty mark and sits on one
// view's list, so it is restored once.
func (p *Process) Reset() {
	for _, v := range p.views {
		v.mem.Restore(v.restorePage)
	}
	p.cur = p.first
	p.CPU.Mem = p.first.mem
	p.CPU.ISA = p.first.isa
	p.hooks.Indirect = p.first.hook
	p.hooks.ResetState()
	p.CPU.Reset(p.first.img)
	p.Exited, p.ExitCode, p.Signal = false, 0, 0
	p.Output = p.Output[:0]
	p.inputOff = 0
	clear(p.handlers)
	p.pending = p.pending[:0]
	p.inSignal = false
	p.sigFrame = sigContext{}
}

// restorePage rewrites one dirtied frame at addr to its load state: bytes
// of writable sections are copied back from the image, bytes in no section
// (the stack, a page's tail past the last section) are zeroed, and bytes of
// read-only sections are left alone. Only writable frames are ever dirty,
// so the runtime rewrites Poked into code frames are never touched.
func (v *View) restorePage(addr uint64, data *[obj.PageSize]byte) {
	end := addr + obj.PageSize
	cur := addr
	for _, s := range v.secs {
		if s.Addr >= end {
			break
		}
		if s.End() <= cur {
			continue
		}
		if s.Addr > cur {
			clear(data[cur-addr : s.Addr-addr])
			cur = s.Addr
		}
		hi := min(s.End(), end)
		if s.Perm&obj.PermW != 0 {
			copy(data[cur-addr:hi-addr], s.Data[cur-s.Addr:])
		}
		cur = hi
	}
	clear(data[cur-addr:])
}

// DataHash FNV-1a-hashes the current contents of orig's writable sections
// in the process's memory. Rewriters preserve data placement, so hashing
// the ORIGINAL image's sections gives a value comparable across variants.
func (p *Process) DataHash(orig *obj.Image) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range orig.Sections {
		if s.Perm&obj.PermW == 0 || len(s.Data) == 0 {
			continue
		}
		buf := make([]byte, len(s.Data))
		if _, ok := p.CPU.Mem.Read(s.Addr, buf); !ok {
			continue
		}
		for _, b := range buf {
			h ^= uint64(b)
			h *= 1099511628211
		}
	}
	return h
}

// ViewFor returns the view whose binary runs on the given core ISA: an
// exact match, else the richest view the core supports.
func (p *Process) ViewFor(isa riscv.Ext) (*View, bool) {
	if v, ok := p.views[isa]; ok {
		return v, true
	}
	var best *View
	for _, v := range p.views {
		if isa.Has(v.img.ISA) {
			if best == nil || v.img.ISA > best.img.ISA {
				best = v
			}
		}
	}
	return best, best != nil
}

// CurrentView returns the active MMView.
func (p *Process) CurrentView() *View { return p.cur }

// GP returns the view's ABI gp value.
func (v *View) GP() uint64 { return v.img.GP }

// Tables exposes the view's runtime tables.
func (v *View) Tables() *chbp.Tables { return v.tables }

// syncVectorStateOut spills the hart's architectural vector state into the
// view's simulated register file so a base-core view sees it (§4.1).
func (p *Process) syncVectorStateOut(to *View) {
	if to.vregAddr == 0 {
		return
	}
	mem := to.mem
	mem.WriteUint64(to.vregAddr, p.CPU.VL)
	mem.WriteUint64(to.vregAddr+8, uint64(p.CPU.VT))
	var buf [riscv.VLenBytes]byte
	for i := 0; i < 32; i++ {
		copy(buf[:], p.CPU.V[i][:])
		mem.Write(to.vregAddr+16+uint64(i*riscv.VLenBytes), buf[:])
	}
}

// syncVectorStateIn loads the simulated register file back into the hart's
// vector registers when migrating to an extension core.
func (p *Process) syncVectorStateIn(from *View) {
	if from.vregAddr == 0 {
		return
	}
	mem := from.mem
	if vl, err := mem.ReadUint64(from.vregAddr); err == nil {
		p.CPU.VL = vl
	}
	if vt, err := mem.ReadUint64(from.vregAddr + 8); err == nil {
		p.CPU.VT = int64(vt)
	}
	var buf [riscv.VLenBytes]byte
	for i := 0; i < 32; i++ {
		if _, ok := mem.Read(from.vregAddr+16+uint64(i*riscv.VLenBytes), buf[:]); ok {
			copy(p.CPU.V[i][:], buf[:])
		}
	}
}

// MigrateTo moves the process onto a core of the given ISA: it switches to
// the view for that core (Fig. 9 ②) and pins the hart to isa, the core's
// ISA rather than the view's, so instructions the core lacks fault even
// when the view would allow them. Under FAM with no view for the core the
// task keeps its only binary and relies on the illegal-instruction fault to
// bounce back to a capable core (§2.1).
func (p *Process) MigrateTo(isa riscv.Ext) error {
	target, ok := p.ViewFor(isa)
	if !ok && !bool(p.FAM) {
		return fmt.Errorf("kernel: no view runs on %v", isa)
	}
	if ok && target != p.cur {
		if err := p.switchView(target); err != nil {
			return err
		}
	}
	p.CPU.ISA = isa
	return nil
}

// switchView makes target the active view. If the pc currently sits inside
// generated target instructions, the switch is delayed by running to the
// block's exit probe first (§4.3). The bound caps that run.
func (p *Process) switchView(target *View) error {
	// Delay while inside target instructions: the same pc is not
	// semantically equivalent across views there.
	if t := p.cur.tables; t != nil && t.InTargetSection(p.CPU.PC) {
		for i := 0; i < 1_000_000 && t.InTargetSection(p.CPU.PC); i++ {
			if res := p.step(1); res != stepOK {
				break
			}
		}
		if t.InTargetSection(p.CPU.PC) {
			return fmt.Errorf("kernel: migration probe never fired at %#x", p.CPU.PC)
		}
	}
	// Regenerated views live at different code addresses: translate the pc
	// back to the original address space, then forward into the target.
	// (Patched views preserve addresses, so both steps are no-ops there.)
	if p.cur.revMap != nil {
		if orig, ok := p.cur.revMap[p.CPU.PC]; ok {
			p.CPU.PC = orig
		}
	}
	if t := target.tables; t != nil && t.AddrMap != nil {
		if npc, ok := t.AddrMap[p.CPU.PC]; ok {
			p.CPU.PC = npc
		} else if s := target.img.SectionAt(p.CPU.PC); s == nil || s.Perm&obj.PermX == 0 {
			return fmt.Errorf("kernel: pc %#x not mappable into regenerated view", p.CPU.PC)
		}
	}
	// Vector context moves through the simulated register files.
	if p.cur.isa.Has(riscv.ExtV) && !target.isa.Has(riscv.ExtV) {
		p.syncVectorStateOut(target)
	}
	if !p.cur.isa.Has(riscv.ExtV) && target.isa.Has(riscv.ExtV) {
		p.syncVectorStateIn(p.cur)
	}
	p.cur = target
	p.CPU.Mem = target.mem
	p.hooks.Indirect = target.hook
	p.Counters.Migrations++
	p.Counters.KernelCycles += MigrationCost
	return nil
}

// runtimeRewrite handles an unrecognized extension instruction that faulted
// (§4.1/§4.3 "Redirection/Rewriting"): the kernel translates it in place
// with a trap trampoline into a per-view patch area.
func (p *Process) runtimeRewrite(v *View, pc uint64) error {
	page, ok := v.mem.Page(pc)
	if !ok {
		return fmt.Errorf("kernel: faulting pc %#x unmapped", pc)
	}
	off := pc & (obj.PageSize - 1)
	raw := make([]byte, 4)
	n := copy(raw, page.Data[off:])
	inst, err := riscv.Decode(raw[:n])
	if err != nil {
		return fmt.Errorf("kernel: cannot decode at %#x: %w", pc, err)
	}
	if p.CPU.ISA.Has(inst.Extension()) {
		return fmt.Errorf("kernel: %s at %#x is already supported", inst, pc)
	}
	if v.vregAddr == 0 {
		return fmt.Errorf("kernel: view has no simulated register file")
	}
	// The element width in effect lives in the simulated vtype slot (any
	// dominating vsetvli was itself downgraded to write it there).
	sew := riscv.E64
	if vt, err := v.mem.ReadUint64(v.vregAddr + 8); err == nil && vt != 0 {
		sew = riscv.SEWOf(int64(vt))
	}
	seq, err := translate.Downgrade(inst, sew, &translate.Context{VRegBase: v.vregAddr})
	if err != nil {
		return err
	}
	// Place the target block followed by a trap exit resuming after the
	// rewritten instruction.
	need := uint64(4*len(seq)) + 4
	if v.patchCursor+need > v.patchEnd {
		return fmt.Errorf("kernel: runtime patch area exhausted")
	}
	v.mem.Map(v.patchCursor, need, obj.PermRX)
	blockAddr := v.patchCursor
	for i, in := range seq {
		w, err := riscv.Encode(in)
		if err != nil {
			return err
		}
		writeCode(v.mem, blockAddr+uint64(4*i), w)
	}
	exitAddr := blockAddr + uint64(4*len(seq))
	writeCode(v.mem, exitAddr, riscv.MustEncode(riscv.Inst{Op: riscv.EBREAK}))
	// Patch the faulting instruction with a trap trampoline of its size.
	if inst.Len == 2 {
		pcl, _ := riscv.EncodeCompressed(riscv.Inst{Op: riscv.EBREAK})
		writeParcel(v.mem, pc, pcl)
	} else {
		writeCode(v.mem, pc, riscv.MustEncode(riscv.Inst{Op: riscv.EBREAK}))
	}
	if v.tables == nil {
		v.tables = chbp.NewTables(v.img.GP)
	}
	v.tables.Trap[pc] = blockAddr
	v.tables.ExitTrap[exitAddr] = pc + uint64(inst.Len)
	// Advance past this block: without this, the next rewrite would overlay
	// its block at the same address, leaving every earlier trap entry
	// pointing into the newer block's bytes — correct on the first, purely
	// sequential pass that triggered the rewrites, and silently wrong the
	// next time any earlier site is re-entered.
	v.patchCursor += need
	p.Counters.RuntimeRewrites++
	p.Counters.KernelCycles += RuntimeRewriteCost
	return nil
}

// writeCode stores a 32-bit word bypassing page permissions (kernel
// privilege).
func writeCode(m *emu.Memory, addr uint64, w uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], w)
	m.Poke(addr, b[:])
}

func writeParcel(m *emu.Memory, addr uint64, pcl uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], pcl)
	m.Poke(addr, b[:])
}
