// Package obj defines the executable image format Chimera rewrites and the
// simulated machine loads. An Image is the moral equivalent of the ELF
// subset the paper's toolchain consumes: loadable sections with permissions,
// a symbol table, an entry point, the ABI gp anchor, and the ISA feature set
// the binary was compiled for.
package obj

import (
	"fmt"
	"sort"

	"github.com/eurosys26p57/chimera/internal/riscv"
)

// Perm is a section permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 4
	PermW Perm = 2
	PermX Perm = 1

	PermRX  = PermR | PermX
	PermRW  = PermR | PermW
	PermRWX = PermR | PermW | PermX
)

// String renders the permission like "r-x".
func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Section is one loadable region.
type Section struct {
	Name string
	Addr uint64
	Data []byte
	Perm Perm
}

// End returns the first address past the section.
func (s *Section) End() uint64 { return s.Addr + uint64(len(s.Data)) }

// Contains reports whether addr falls inside the section.
func (s *Section) Contains(addr uint64) bool { return addr >= s.Addr && addr < s.End() }

// SymKind classifies a symbol.
type SymKind uint8

// Symbol kinds.
const (
	SymFunc SymKind = iota
	SymObject
)

// Symbol names an address in the image. Function symbols seed recursive
// disassembly.
type Symbol struct {
	Name string
	Addr uint64
	Size uint64
	Kind SymKind
}

// Canonical section names.
const (
	SecText   = ".text"
	SecRodata = ".rodata"
	SecData   = ".data"
	SecSData  = ".sdata"
	SecBSS    = ".bss"
	// SecTarget holds CHBP's generated target instructions; SecVRegFile backs
	// the simulated extension register file (§4.1).
	SecTarget   = ".chimera.text"
	SecVRegFile = ".chimera.vregs"
	// SecFaultTab is the serialized chbp.Tables: every piece of runtime
	// metadata the kernel reads to run a rewritten image (§4.3).
	SecFaultTab = ".chimera.faulttab"
)

// Image is a loadable, rewritable binary.
type Image struct {
	Name     string
	Entry    uint64
	GP       uint64    // ABI global-pointer anchor (points into .sdata)
	ISA      riscv.Ext // extensions instructions in the image may use
	Sections []*Section
	Symbols  []Symbol
}

// Section returns the named section, or nil.
func (img *Image) Section(name string) *Section {
	for _, s := range img.Sections {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Text returns the primary executable section.
func (img *Image) Text() *Section { return img.Section(SecText) }

// SectionAt returns the section containing addr, or nil.
func (img *Image) SectionAt(addr uint64) *Section {
	for _, s := range img.Sections {
		if s.Contains(addr) {
			return s
		}
	}
	return nil
}

// AddSection appends a section and keeps the section list address-sorted.
func (img *Image) AddSection(s *Section) {
	img.Sections = append(img.Sections, s)
	sort.Slice(img.Sections, func(i, j int) bool { return img.Sections[i].Addr < img.Sections[j].Addr })
}

// SymbolAt returns the symbol with the given address, if any.
func (img *Image) SymbolAt(addr uint64) (Symbol, bool) {
	for _, sym := range img.Symbols {
		if sym.Addr == addr {
			return sym, true
		}
	}
	return Symbol{}, false
}

// Lookup returns the named symbol.
func (img *Image) Lookup(name string) (Symbol, bool) {
	for _, sym := range img.Symbols {
		if sym.Name == name {
			return sym, true
		}
	}
	return Symbol{}, false
}

// FuncSymbols returns the function symbols sorted by address.
func (img *Image) FuncSymbols() []Symbol {
	var out []Symbol
	for _, sym := range img.Symbols {
		if sym.Kind == SymFunc {
			out = append(out, sym)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// ReadAt copies len(p) bytes starting at addr, which must lie entirely
// inside one section.
func (img *Image) ReadAt(addr uint64, p []byte) error {
	s := img.SectionAt(addr)
	if s == nil || addr+uint64(len(p)) > s.End() {
		return fmt.Errorf("obj: read [%#x,%#x) outside any section", addr, addr+uint64(len(p)))
	}
	copy(p, s.Data[addr-s.Addr:])
	return nil
}

// WriteAt overwrites bytes starting at addr, which must lie entirely inside
// one section. Used by rewriters patching trampolines into code copies.
func (img *Image) WriteAt(addr uint64, p []byte) error {
	s := img.SectionAt(addr)
	if s == nil || addr+uint64(len(p)) > s.End() {
		return fmt.Errorf("obj: write [%#x,%#x) outside any section", addr, addr+uint64(len(p)))
	}
	copy(s.Data[addr-s.Addr:], p)
	return nil
}

// Clone deep-copies the image. Rewriters operate on clones so the original
// binary remains available for other cores (§3.4).
func (img *Image) Clone() *Image {
	out := &Image{
		Name:    img.Name,
		Entry:   img.Entry,
		GP:      img.GP,
		ISA:     img.ISA,
		Symbols: append([]Symbol(nil), img.Symbols...),
	}
	for _, s := range img.Sections {
		out.Sections = append(out.Sections, &Section{
			Name: s.Name,
			Addr: s.Addr,
			Data: append([]byte(nil), s.Data...),
			Perm: s.Perm,
		})
	}
	return out
}

// Validate checks structural invariants: sections do not overlap, the entry
// point and gp anchor land in appropriately-permissioned sections.
func (img *Image) Validate() error {
	secs := append([]*Section(nil), img.Sections...)
	sort.Slice(secs, func(i, j int) bool { return secs[i].Addr < secs[j].Addr })
	for i := 1; i < len(secs); i++ {
		if secs[i].Addr < secs[i-1].End() {
			return fmt.Errorf("obj: sections %q [%#x,%#x) and %q [%#x,%#x) overlap",
				secs[i-1].Name, secs[i-1].Addr, secs[i-1].End(),
				secs[i].Name, secs[i].Addr, secs[i].End())
		}
	}
	if s := img.SectionAt(img.Entry); s == nil || s.Perm&PermX == 0 {
		return fmt.Errorf("obj: entry %#x not in an executable section", img.Entry)
	}
	if img.GP != 0 {
		if s := img.SectionAt(img.GP); s == nil || s.Perm&PermW == 0 || s.Perm&PermX != 0 {
			return fmt.Errorf("obj: gp anchor %#x must point into a writable, non-executable section", img.GP)
		}
	}
	return nil
}

// CodeSize returns the total size in bytes of executable sections.
func (img *Image) CodeSize() int {
	n := 0
	for _, s := range img.Sections {
		if s.Perm&PermX != 0 {
			n += len(s.Data)
		}
	}
	return n
}
