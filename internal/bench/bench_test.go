package bench

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
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

// fig11PointConfig is the configuration of one Fig. 11 point as the repo
// benchmark's fig11 workload runs it: 4 base + 4 extension cores, 24
// tasks, a 16×16 matmul, one extension-task share.
func fig11PointConfig(share int) Fig11Config {
	return Fig11Config{
		BaseCores: 4, ExtCores: 4, Tasks: 24, MatmulN: 16,
		Shares: []int{share},
	}
}

// TestFig11Concurrent runs two Fig. 11 sweeps on separate goroutines, as
// two clients of the service benchmark do, and requires the cells of a
// sequential run: no state may leak between concurrent sweeps.
func TestFig11Concurrent(t *testing.T) {
	cfg := fig11PointConfig(60)
	for _, inputExt := range []bool{true, false} {
		want, err := Fig11(cfg, inputExt)
		if err != nil {
			t.Fatal(err)
		}
		var got [2]*Fig11Result
		var errs [2]error
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = Fig11(cfg, inputExt)
			}()
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("inputExt=%t client %d: %v", inputExt, i, errs[i])
			}
			if !reflect.DeepEqual(got[i].Cells, want.Cells) {
				t.Errorf("inputExt=%t client %d: cells %+v, sequential %+v", inputExt, i, got[i].Cells, want.Cells)
			}
		}
	}
}

// TestFig11InterpretsOnlyEcalls runs one Fig. 11 point in each direction
// and requires that the block and trace tiers hand the interpreter nothing
// but the guests' ecalls: every vector, divide and FP instruction the
// tasks execute runs as a µop.
func TestFig11InterpretsOnlyEcalls(t *testing.T) {
	for _, inputExt := range []bool{true, false} {
		var interpreted, syscalls uint64
		_, err := fig11(fig11PointConfig(60), inputExt, func(sys heterosys.System, out *kernel.Results) {
			for _, task := range out.Tasks {
				interpreted += task.Proc.CPU.Blocks.Interpreted
				syscalls += task.Proc.Counters.Syscalls
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if syscalls == 0 || interpreted != syscalls {
			t.Errorf("inputExt=%t: %d instructions interpreted, want the %d ecalls", inputExt, interpreted, syscalls)
		}
	}
}

// BenchmarkFig11Point measures one Fig. 11 point per op, cycling through
// every share of both directions: the calibration, the four systems'
// preparation, and 24 tasks scheduled on each of them.
func BenchmarkFig11Point(b *testing.B) {
	shares := DefaultFig11().Shares
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i % (2 * len(shares))
		if _, err := Fig11(fig11PointConfig(shares[k/2]), k%2 == 0); err != nil {
			b.Fatal(err)
		}
	}
}
