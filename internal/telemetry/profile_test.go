package telemetry

import (
	"strings"
	"testing"

	"github.com/eurosys26p57/chimera/internal/instrument"
)

func TestSymTableResolve(t *testing.T) {
	st := NewSymTable([]Sym{
		{Name: "main", Addr: 0x1000, Size: 0x100},
		{Name: "helper", Addr: 0x2000}, // size 0: extends to next
		{Name: "tail", Addr: 0x3000},   // size 0, last: unbounded
	})
	cases := []struct {
		pc   uint64
		want string
	}{
		{0x1000, "main"},
		{0x1040, "main+0x40"},
		{0x10ff, "main+0xff"},
		{0x1100, "0x1100"}, // past main's size, before helper
		{0x2000, "helper"},
		{0x2fff, "helper+0xfff"},
		{0x3000, "tail"},
		{0x9999, "tail+0x6999"},
		{0x10, "0x10"}, // before all symbols
	}
	for _, c := range cases {
		if got := st.Location(c.pc); got != c.want {
			t.Errorf("Location(%#x) = %q, want %q", c.pc, got, c.want)
		}
	}
	var nilTable *SymTable
	if got := nilTable.Location(0x42); got != "0x42" {
		t.Errorf("nil table Location = %q", got)
	}
}

func TestReportAndFoldedStacks(t *testing.T) {
	p := instrument.NewProfile()
	p.Add(0x1010, 1, 8, 75)
	p.Add(0x1000, 1, 2, 25)
	st := NewSymTable([]Sym{{Name: "main", Addr: 0x1000}})

	rep := Report(p.Samples(), st, 10)
	if len(rep) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep[0].Rank != 1 || rep[0].Location != "main+0x10" || rep[0].CyclePct != 75 {
		t.Errorf("rep[0] = %+v", rep[0])
	}
	if rep[1].Rank != 2 || rep[1].Location != "main" || rep[1].CyclePct != 25 {
		t.Errorf("rep[1] = %+v", rep[1])
	}

	var tbl strings.Builder
	WriteTable(&tbl, p.Samples(), st, 10)
	out := tbl.String()
	if !strings.Contains(out, "main+0x10") || !strings.Contains(out, "75.0%") {
		t.Errorf("table output:\n%s", out)
	}

	folded := strings.Join(Folded("matmul", p.Samples(), st), "\n")
	want := "matmul;main 25\nmatmul;main+0x10 75"
	if folded != want {
		t.Errorf("folded = %q, want %q", folded, want)
	}
	if top := Report(p.Samples(), st, 1); len(top) != 1 || top[0].CyclePct != 75 {
		t.Errorf("top-1 report = %+v, want one entry with its share of all cycles", top)
	}
}
