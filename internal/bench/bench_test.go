package bench

import (
	"bytes"
	"strings"
	"testing"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/heterosys"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// quickFig11 is a scaled-down configuration for tests.
func quickFig11() Fig11Config {
	return Fig11Config{
		BaseCores: 2, ExtCores: 2,
		Tasks:   16,
		MatmulN: 16,
		Shares:  []int{0, 50, 100},
	}
}

func TestFig11Shapes(t *testing.T) {
	res, err := Fig11(quickFig11(), true) // extension version: downgrading
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty print")
	}
	// At 100% extension tasks, Chimera must beat FAM end-to-end: FAM leaves
	// the base cores idle.
	last := len(res.Shares) - 1
	fam := res.Cells[heterosys.FAM][last].Latency
	chim := res.Cells[heterosys.Chimera][last].Latency
	if chim >= fam {
		t.Errorf("at 100%% ext share Chimera latency %d not better than FAM %d", chim, fam)
	}
	// Chimera must stay near MELF (the paper: ~3-5%; allow slack at this
	// tiny scale).
	over := res.OverheadVsMELF()
	if over > 0.25 || over < -0.05 {
		t.Errorf("Chimera overhead vs MELF = %.1f%%, outside the expected band", 100*over)
	}
	// Fig. 12: with every task an extension task, a meaningful share still
	// runs accelerated under Chimera.
	if acc := res.Cells[heterosys.Chimera][last].AcceleratedPct; acc < 30 {
		t.Errorf("accelerated share %.1f%% too low", acc)
	}
}

func TestFig11UpgradeDirection(t *testing.T) {
	res, err := Fig11(quickFig11(), false) // base version: upgrading
	if err != nil {
		t.Fatal(err)
	}
	// FAM cannot upgrade: its latency stays roughly flat across shares,
	// while Chimera's drops as extension tasks grow.
	fam0 := float64(res.Cells[heterosys.FAM][0].Latency)
	famN := float64(res.Cells[heterosys.FAM][len(res.Shares)-1].Latency)
	if famN < fam0*0.8 {
		t.Errorf("FAM latency improved during upgrading (%.0f -> %.0f); it has no vector acceleration", fam0, famN)
	}
	chim0 := float64(res.Cells[heterosys.Chimera][0].Latency)
	chimN := float64(res.Cells[heterosys.Chimera][len(res.Shares)-1].Latency)
	if chimN >= chim0 {
		t.Errorf("Chimera upgrading latency did not drop: %.0f -> %.0f", chim0, chimN)
	}
}

func quickCase() workload.SpecCase {
	// Erroneous entries are rare in real binaries (Table 2: ~1e-6 of Safer's
	// check counts); one per run keeps the quick case representative.
	return workload.SpecCase{
		Params: workload.SpecParams{
			Name: "quick", CodeKB: 1100, Funcs: 6, VecFuncs: 4, BodyInsts: 40,
			IndirectEvery: 2, ErrEntryEvery: 40, Rounds: 41, Seed: 11,
		},
		PaperMB: 1.1, PaperExtPct: 3.0,
	}
}

func TestFig13Ordering(t *testing.T) {
	row, err := Fig13Case(quickCase(), 0)
	if err != nil {
		t.Fatal(err)
	}
	chbpD := row.Degradation["chbp"]
	saferD := row.Degradation["safer"]
	armoreD := row.Degradation["armore"]
	strawD := row.Degradation["strawman"]
	if !(chbpD < saferD) {
		t.Errorf("CHBP (%.1f%%) not cheaper than Safer (%.1f%%)", 100*chbpD, 100*saferD)
	}
	if !(chbpD < strawD) {
		t.Errorf("CHBP (%.1f%%) not cheaper than strawman (%.1f%%)", 100*chbpD, 100*strawD)
	}
	if !(saferD < armoreD) {
		t.Errorf("Safer (%.1f%%) not cheaper than ARMore (%.1f%%)", 100*saferD, 100*armoreD)
	}
	// The paper's CHBP band: a few percent.
	if chbpD > 0.15 {
		t.Errorf("CHBP degradation %.1f%% far above the expected band", 100*chbpD)
	}
	// Table 2 ordering: CHBP triggers orders of magnitude below Safer's.
	if row.Triggers["chbp"]*100 > row.Triggers["safer"] {
		t.Errorf("CHBP triggers (%d) not ≪ Safer's (%d)", row.Triggers["chbp"], row.Triggers["safer"])
	}
	var buf bytes.Buffer
	PrintFig13(&buf, []*Fig13Row{row})
	PrintTable2(&buf, []*Fig13Row{row})
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestTable3Quick(t *testing.T) {
	rows, err := Table3([]workload.SpecCase{quickCase()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.CodeSizeMB < 1.0 {
		t.Errorf("code size %.2fMB below 1MB", r.CodeSizeMB)
	}
	if r.Tramps == 0 || r.ExtPct <= 0 {
		t.Errorf("degenerate stats: %+v", r)
	}
	// Exit-position shifting must not fail more often than plain liveness.
	if r.DeadRegFailOurs > r.DeadRegFailTraditional {
		t.Errorf("shifting failed more (%d) than traditional (%d)",
			r.DeadRegFailOurs, r.DeadRegFailTraditional)
	}
	var buf bytes.Buffer
	PrintTable3(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestAblationsQuick(t *testing.T) {
	rows, err := Ablations(quickCase(), 15)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*AblationRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	full := byName["chbp (full)"]
	trap := byName["A1 trap trampolines"]
	nobatch := byName["A3 no batching"]
	if full == nil || trap == nil || nobatch == nil {
		t.Fatalf("missing variants: %+v", rows)
	}
	if full.Cycles >= trap.Cycles {
		t.Errorf("SMILE (%d cycles) not cheaper than trap trampolines (%d)", full.Cycles, trap.Cycles)
	}
	if full.Cycles > nobatch.Cycles {
		t.Errorf("batching (%d cycles) slower than no batching (%d)", full.Cycles, nobatch.Cycles)
	}
	var buf bytes.Buffer
	PrintAblations(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFig14Quick(t *testing.T) {
	cfg := Fig14Config{
		N: 16, Threads: []int{2, 4},
		BaseCores: 2, ExtCores: 2,
		SyncCyclesPerThread: 10_000,
	}
	row, err := Fig14Kernel(cfg, workload.DGEMM)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Threads {
		if r := row.Ratio["fam-ext"][i]; r != 1.0 {
			t.Errorf("fam-ext ratio at %d threads = %.2f, want 1.0", cfg.Threads[i], r)
		}
		melf := row.Ratio["melf"][i]
		chim := row.Ratio["chimera"][i]
		if chim < melf*0.7 {
			t.Errorf("chimera ratio %.2f far below melf %.2f at %d threads", chim, melf, cfg.Threads[i])
		}
	}
	var buf bytes.Buffer
	row.Print(&buf)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

// TestRunOnCoreExitCodes: a voluntary exit code of 128 or more is not a
// signal kill; a null dereference is one, reported by its signal number.
func TestRunOnCoreExitCodes(t *testing.T) {
	for _, c := range []struct {
		code      int64
		nullDeref bool
		err       string
	}{{200, false, ""}, {0, true, "killed by signal 11"}} {
		b := asm.NewBuilder(riscv.RV64GC)
		b.Func("main")
		if c.nullDeref {
			b.Load(riscv.LD, riscv.T0, riscv.Zero, 0)
		}
		b.Li(riscv.A0, c.code)
		b.Li(riscv.A7, kernel.SysExit)
		b.Ecall()
		img, err := b.Build("exit", "main")
		if err != nil {
			t.Fatal(err)
		}
		p, err := kernel.NewProcess(img.Name, []kernel.Variant{{ISA: img.ISA, Image: img}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunOnCore(p, img.ISA)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("exit(%d): %v", c.code, err)
		case c.err == "" && p.ExitCode != uint64(c.code):
			t.Errorf("exit code %d, want %d", p.ExitCode, c.code)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("null dereference: err %v, want %q", err, c.err)
		}
	}
}
