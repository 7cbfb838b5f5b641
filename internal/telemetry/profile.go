package telemetry

// Rendering for the guest profiler (instrument.Profile, which the emulator
// feeds once per stitched block a dispatch enters): symbolization against
// an image's function symbols, a ranked top-N table, and folded-stack
// flamegraph lines. Every function takes samples in Profile.Samples order
// (cycles descending, pc ascending).

import (
	"fmt"
	"io"
	"sort"

	"github.com/eurosys26p57/chimera/internal/instrument"
	"github.com/eurosys26p57/chimera/internal/obj"
)

// --- Symbolization -------------------------------------------------------

// Sym is one function symbol for the profiler's symbolizer.
type Sym struct {
	Name string
	Addr uint64
	Size uint64
}

// SymTable resolves guest addresses to function-relative names.
type SymTable struct {
	syms []Sym // sorted by Addr, then Name
}

// NewSymTable builds a table from function symbols (any order).
func NewSymTable(syms []Sym) *SymTable {
	t := &SymTable{syms: append([]Sym(nil), syms...)}
	sort.Slice(t.syms, func(i, j int) bool {
		if t.syms[i].Addr != t.syms[j].Addr {
			return t.syms[i].Addr < t.syms[j].Addr
		}
		return t.syms[i].Name < t.syms[j].Name
	})
	return t
}

// SymTableOf builds a table from the function symbols of every image (the
// views of one process, say); nil when none has any.
func SymTableOf(imgs ...*obj.Image) *SymTable {
	var syms []Sym
	for _, img := range imgs {
		for _, s := range img.FuncSymbols() {
			syms = append(syms, Sym{Name: s.Name, Addr: s.Addr, Size: s.Size})
		}
	}
	if len(syms) == 0 {
		return nil
	}
	return NewSymTable(syms)
}

// Resolve maps pc to the containing symbol and offset. A symbol with Size 0
// extends to the next symbol's start (or unbounded for the last one).
func (t *SymTable) Resolve(pc uint64) (name string, off uint64, ok bool) {
	if t == nil || len(t.syms) == 0 {
		return "", 0, false
	}
	i := sort.Search(len(t.syms), func(i int) bool { return t.syms[i].Addr > pc })
	if i == 0 {
		return "", 0, false
	}
	s := t.syms[i-1]
	if s.Size > 0 && pc >= s.Addr+s.Size {
		return "", 0, false
	}
	if s.Size == 0 && i < len(t.syms) && pc >= t.syms[i].Addr {
		return "", 0, false
	}
	return s.Name, pc - s.Addr, true
}

// Location renders pc as "sym+0xoff" (or "0xpc" when unresolvable).
func (t *SymTable) Location(pc uint64) string {
	if name, off, ok := t.Resolve(pc); ok {
		if off == 0 {
			return name
		}
		return fmt.Sprintf("%s+%#x", name, off)
	}
	return fmt.Sprintf("%#x", pc)
}

// --- Reports -------------------------------------------------------------

// HotBlock is one symbolized entry of the profile report.
type HotBlock struct {
	Rank       int     `json:"rank"`
	PC         uint64  `json:"pc"`
	Location   string  `json:"location"` // sym+0xoff
	Cycles     uint64  `json:"cycles"`
	CyclePct   float64 `json:"cycle_pct"`
	Instret    uint64  `json:"instret"`
	Dispatches uint64  `json:"dispatches"`
}

// Report symbolizes the top-n ranked samples against st (which may be nil);
// cycle shares are relative to all samples.
func Report(samples []instrument.BlockSample, st *SymTable, n int) []HotBlock {
	var total uint64
	for _, s := range samples {
		total += s.Cycles
	}
	if n > 0 && len(samples) > n {
		samples = samples[:n]
	}
	out := make([]HotBlock, len(samples))
	for i, s := range samples {
		hb := HotBlock{
			Rank: i + 1, PC: s.PC, Location: st.Location(s.PC),
			Cycles: s.Cycles, Instret: s.Instret, Dispatches: s.Dispatches,
		}
		if total > 0 {
			hb.CyclePct = 100 * float64(s.Cycles) / float64(total)
		}
		out[i] = hb
	}
	return out
}

// WriteTable renders the top-n report as an aligned text table.
func WriteTable(w io.Writer, samples []instrument.BlockSample, st *SymTable, n int) {
	fmt.Fprintf(w, "%4s  %-12s  %-28s  %12s  %6s  %12s  %10s\n",
		"rank", "pc", "location", "cycles", "cyc%", "instret", "dispatches")
	for _, hb := range Report(samples, st, n) {
		fmt.Fprintf(w, "%4d  %#-12x  %-28s  %12d  %5.1f%%  %12d  %10d\n",
			hb.Rank, hb.PC, hb.Location, hb.Cycles, hb.CyclePct, hb.Instret, hb.Dispatches)
	}
}

// Folded returns one flamegraph-folded line per sample —
// "root;location cycles" — sorted by location for deterministic output.
// Feed the lines to any flamegraph renderer (e.g. flamegraph.pl).
func Folded(root string, samples []instrument.BlockSample, st *SymTable) []string {
	lines := make([]string, 0, len(samples))
	for _, s := range samples {
		lines = append(lines, fmt.Sprintf("%s;%s %d", root, st.Location(s.PC), s.Cycles))
	}
	sort.Strings(lines)
	return lines
}
