package service

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// specRunRequest is the run workload's request shape: a SPEC-shaped
// rv64gcv program rewritten by chbp to rv64gc, run on rv64gc with the
// original as its sibling view.
func specRunRequest(t testing.TB, name string, codeKB int, rounds int64) *RunRequest {
	t.Helper()
	var p workload.SpecParams
	for _, c := range workload.SpecSuite() {
		if c.Params.Name == name {
			p = c.Params
		}
	}
	p.CodeKB, p.Rounds = codeKB, rounds
	orig, err := workload.BuildSpec(p, true)
	if err != nil {
		t.Fatal(err)
	}
	return chbpRunRequest(t, orig, false)
}

// chbpRunRequest rewrites orig by chbp to rv64gc, with the resolver on or
// off, and asks for the rewrite to run on rv64gc with orig as its sibling.
func chbpRunRequest(t testing.TB, orig *obj.Image, resolve bool) *RunRequest {
	t.Helper()
	rw, err := rewriters.Rewrite(orig, rewriters.Config{Method: "chbp", Target: riscv.RV64GC, Resolve: resolve})
	if err != nil {
		t.Fatal(err)
	}
	return &RunRequest{ISA: "rv64gc", Image: rw.Image, With: orig}
}

// spinImage assembles a guest that never exits.
func spinImage(t *testing.T) *obj.Image {
	t.Helper()
	b := asm.NewBuilder(riscv.RV64GC)
	b.Func("main")
	b.Label("spin")
	b.Imm(riscv.ADDI, riscv.A0, riscv.A0, 1)
	b.J("spin")
	img, err := b.Build("spin", "main")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// arenaRun is what a /run shows that must not depend on the arena it ran
// in: the fields of its result but the wall-clock MIPS, or its error.
type arenaRun struct {
	Err      string
	ExitCode uint64
	Output   string
	Cycles   uint64
	Instret  uint64
	Counters kernel.Counters
	Blocks   emu.BlockStats
}

func runOf(res *RunResult, err error) arenaRun {
	if err != nil {
		return arenaRun{Err: err.Error()}
	}
	return arenaRun{ExitCode: res.ExitCode, Output: res.Output, Cycles: res.Cycles,
		Instret: res.Instret, Counters: res.Counters, Blocks: res.Blocks}
}

// arenaBudget is the instruction budget of the arena reuse servers: above
// every program but the spinner.
const arenaBudget = 3_000_000

// TestArenaReuseInvisible runs five kinds of /run, in seeded shuffled
// orders, on one server with one execution slot, so every run builds into
// the translations its predecessors left in the slot's arena: a chbp
// rewrite with its sibling view, a resolver-off dispatch program that
// takes runtime-rewrite faults, a guest killed by SIGSEGV, a run the
// instruction budget stops, and a run with the guest profiler on. Each
// must answer exactly what its first run on a fresh server answered.
func TestArenaReuseInvisible(t *testing.T) {
	dispatch, err := workload.BuildDispatch(workload.DispatchParams{
		Name: "dispatch", Arms: 4, VecArms: 3, Rounds: 24, MidEntry: true,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	spec := specRunRequest(t, "perlbench_r", 32, 2)
	progs := []struct {
		name    string
		req     *RunRequest
		profile bool
	}{
		{"spec", spec, false},
		{"dispatch", chbpRunRequest(t, dispatch, false), false},
		{"segv", &RunRequest{Image: exitImage(t, 0, true)}, false},
		{"budget", &RunRequest{Image: spinImage(t)}, false},
		{"profiled", spec, true},
	}
	run := func(srv *Server, i int) arenaRun {
		srv.cfg.GuestProfile = progs[i].profile // runs are sequential
		return runOf(srv.Run(context.Background(), progs[i].req))
	}
	cfg := Config{Workers: 1, RunMaxInstret: arenaBudget}
	want := make([]arenaRun, len(progs))
	for i := range progs {
		fresh := New(cfg)
		want[i] = run(fresh, i)
		fresh.Shutdown(context.Background())
	}
	switch {
	case want[0].Err != "" || want[4].Err != "":
		t.Fatalf("spec run failed: %s%s", want[0].Err, want[4].Err)
	case want[1].Err != "" || want[1].Counters.RuntimeRewrites == 0:
		t.Fatalf("dispatch run %+v takes no runtime-rewrite fault", want[1])
	case want[2].Err == "" || want[3].Err == "":
		t.Fatalf("segv %q and budget %q runs did not fail", want[2].Err, want[3].Err)
	}

	srv := New(cfg)
	defer srv.Shutdown(context.Background())
	rng := rand.New(rand.NewSource(7))
	for round := range 3 {
		for _, i := range rng.Perm(len(progs)) {
			if got := run(srv, i); got != want[i] {
				t.Errorf("round %d, %s: in a reused arena\n got %+v\nwant %+v", round, progs[i].name, got, want[i])
			}
		}
	}
	if st := srv.Stats(); st.Faults.BudgetStops != 3 {
		t.Errorf("%d budget stops, want 3", st.Faults.BudgetStops)
	}
}

// imageBytes is the section bytes of a run request's images.
func imageBytes(req *RunRequest) uint64 {
	var n uint64
	for _, img := range []*obj.Image{req.Image, req.With} {
		for _, s := range img.Sections {
			n += uint64(len(s.Data))
		}
	}
	return n
}

// TestWarmRunAllocBound bounds what a warm /run of the run workload's
// SPEC shape allocates below the bytes of its two images: a run builds
// into its slot's arena, loads zero pages onto the zero frame and copies
// no image, so it allocates for what its guest touches, not for what it
// was sent.
func TestWarmRunAllocBound(t *testing.T) {
	req := specRunRequest(t, "perlbench_r", 128, 4)
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	ctx := context.Background()
	if _, err := srv.Run(ctx, req); err != nil {
		t.Fatal(err)
	}
	const n = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range n {
		if _, err := srv.Run(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / n
	bound := imageBytes(req)
	t.Logf("warm Run: %d B per run; images %d B", perRun, bound)
	if perRun > bound {
		t.Errorf("a warm Run allocates %d B, want at most the %d B of its images", perRun, bound)
	}
}

// TestRunPanicFreshArena: a run that panics in its slot hands the slot a
// fresh arena, and the next run on that slot answers as on a fresh server.
func TestRunPanicFreshArena(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	held := <-srv.slots
	srv.slots <- held
	err := srv.execute(context.Background(), func(a *emu.Arena) error {
		if a != held {
			t.Error("execute passed an arena other than its slot's")
		}
		panic("boom")
	})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("panicking run: %v, want ErrWorkerPanic", err)
	}
	if a := <-srv.slots; a == held || a == nil {
		t.Errorf("slot got back arena %p after a panic; held %p", a, held)
	} else {
		srv.slots <- a
	}
	res, err := srv.Run(context.Background(), &RunRequest{Image: exitImage(t, 3, false)})
	if err != nil || res.ExitCode != 3 {
		t.Fatalf("run after a panic: %+v, %v", res, err)
	}
}
