package fuzzsvc

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// TestMain checks, after every campaign of the package has run, that
// nothing wrote through the shared zero frame.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && !zeroFrameIntact() {
		fmt.Fprintln(os.Stderr, "fuzzsvc: the shared zero frame was written")
		code = 1
	}
	os.Exit(code)
}

// zeroFrameIntact reports whether a freshly mapped page, which reads
// through the shared zero frame, reads all zero.
func zeroFrameIntact() bool {
	mem := emu.NewMemory()
	mem.Map(0, obj.PageSize, obj.PermR)
	var got [obj.PageSize]byte
	return mem.Peek(0, got[:]) && got == [obj.PageSize]byte{}
}

func targetImage(t *testing.T) *obj.Image {
	t.Helper()
	img, err := workload.FuzzTarget(riscv.RV64GC, true)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestCampaignFindsPlantedCrash is the end-to-end acceptance path: from a
// zero seed, coverage guidance climbs the byte gates and the cmp dictionary
// finds the magic word; the crash is bucketed and minimized to the exact
// 8-byte reproducer.
func TestCampaignFindsPlantedCrash(t *testing.T) {
	c, err := New(Config{
		Image:       targetImage(t),
		MaxExecs:    30_000,
		MaxInput:    64,
		ExecBudget:  200_000,
		Seed:        1,
		StopOnCrash: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if !s.Done {
		t.Error("campaign not marked done")
	}
	if len(s.Crashes) == 0 {
		t.Fatalf("no crash found in %d execs (corpus %d, edges %d)", s.Execs, s.Corpus, s.Edges)
	}
	cr := s.Crashes[0]
	if cr.Signal != 11 {
		t.Errorf("crash signal %d, want 11 (SIGSEGV)", cr.Signal)
	}
	if want := workload.FuzzTargetCrashInput(); !bytes.Equal(cr.Minimized, want) {
		t.Errorf("minimized reproducer %q (%d bytes), want %q", cr.Minimized, len(cr.Minimized), want)
	}
	if s.Edges == 0 || s.Corpus < 2 {
		t.Errorf("no coverage progress recorded: edges=%d corpus=%d", s.Edges, s.Corpus)
	}
	t.Logf("crash at exec %d of %d, corpus %d, edges %d", cr.FoundAtExec, s.Execs, s.Corpus, s.Edges)
}

// TestCampaignDeterminism: the same seed and config replay the identical
// execution sequence, verified by the hash-chain digest over every exec.
func TestCampaignDeterminism(t *testing.T) {
	run := func() Snapshot {
		c, err := New(Config{
			Image:      targetImage(t),
			Seeds:      [][]byte{[]byte("CHIMAAAA"), make([]byte, 12)},
			MaxExecs:   800,
			MaxInput:   64,
			ExecBudget: 200_000,
			Seed:       42,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return c.Snapshot()
	}
	a, b := run(), run()
	if a.TraceDigest != b.TraceDigest {
		t.Errorf("campaign trace diverged: %s vs %s", a.TraceDigest, b.TraceDigest)
	}
	if a.Execs != b.Execs || a.Corpus != b.Corpus || a.Edges != b.Edges {
		t.Errorf("campaign stats diverged: %+v vs %+v", a, b)
	}
	// A different seed takes a different path.
	c, err := New(Config{
		Image:      targetImage(t),
		Seeds:      [][]byte{[]byte("CHIMAAAA"), make([]byte, 12)},
		MaxExecs:   800,
		MaxInput:   64,
		ExecBudget: 200_000,
		Seed:       43,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := c.Snapshot(); d.TraceDigest == a.TraceDigest {
		t.Error("different seeds produced identical campaign traces")
	}
}

// TestCampaignGoldenDigests pins whole campaigns, crash triage included, to
// the digests and counters the engine produced when it still zeroed the
// full stack and scanned the whole coverage bitmap on every exec: the
// dirty-page Reset and the touched-cell coverage fold must replay every
// execution bit for bit.
func TestCampaignGoldenDigests(t *testing.T) {
	golden := []struct {
		seed          int64
		digest        string
		execs         uint64
		corpus, edges int
	}{
		{1, "e44fe916654d16a5", 1500, 7, 14},
		{42, "30ba56d242e9d068", 1500, 7, 14},
		{43, "00ca097082d9f139", 1500, 7, 14},
	}
	for _, g := range golden {
		c, err := New(Config{
			Image:      targetImage(t),
			Seeds:      [][]byte{[]byte("CHIMAAAA"), make([]byte, 12)},
			MaxExecs:   1500,
			MaxInput:   64,
			ExecBudget: 200_000,
			Seed:       g.seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		s := c.Snapshot()
		if s.TraceDigest != g.digest || s.Execs != g.execs || s.Corpus != g.corpus || s.Edges != g.edges {
			t.Errorf("seed %d: digest %s execs %d corpus %d edges %d, want %s %d %d %d",
				g.seed, s.TraceDigest, s.Execs, s.Corpus, s.Edges, g.digest, g.execs, g.corpus, g.edges)
		}
		if len(s.Crashes) != 1 {
			t.Errorf("seed %d: %d crash buckets, want 1", g.seed, len(s.Crashes))
		}
	}
}

// TestCampaignStackGuestKeepsZeroFrame runs a campaign whose guest reads
// each input onto one stack page and stores to another: every exec writes
// frames that started zero-backed and that Reset then re-zeroes, and the
// zero frame a fresh mapping reads must stay all zero.
func TestCampaignStackGuestKeepsZeroFrame(t *testing.T) {
	b := asm.NewBuilder(riscv.RV64GC)
	b.Func("main")
	b.Li(riscv.T0, 2*obj.PageSize)
	b.Op(riscv.SUB, riscv.A1, riscv.SP, riscv.T0)
	b.Li(riscv.A7, 63) // read(0, sp-8192, 64)
	b.Li(riscv.A0, 0)
	b.Li(riscv.A2, 64)
	b.Ecall()
	b.Load(riscv.LD, riscv.T1, riscv.A1, 0)
	b.Li(riscv.T0, 5*obj.PageSize)
	b.Op(riscv.SUB, riscv.T2, riscv.SP, riscv.T0)
	b.Store(riscv.SD, riscv.T1, riscv.T2, 0)
	b.Li(riscv.A0, 0)
	b.Li(riscv.A7, 93)
	b.Ecall()
	img, err := b.Build("stackread", "main")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Image: img, Seeds: [][]byte{[]byte("CHIMERA!")}, MaxExecs: 50, MaxInput: 64, ExecBudget: 10_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.Execs != 50 || s.SimErrors != 0 {
		t.Fatalf("campaign: %d execs, %d simulator errors", s.Execs, s.SimErrors)
	}
	if !zeroFrameIntact() {
		t.Error("the campaign wrote the shared zero frame")
	}
}

// TestCampaignHangClassification: a guest that loops past the per-exec
// instruction budget is a hang, not a simulator error, and the campaign
// keeps going.
func TestCampaignHangClassification(t *testing.T) {
	b := asm.NewBuilder(riscv.RV64GC)
	b.Func("main")
	b.Label("spin")
	b.J("spin")
	img, err := b.Build("spin", "main")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Image: img, MaxExecs: 10, ExecBudget: 10_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.Hangs == 0 {
		t.Errorf("no hangs recorded: %+v", s)
	}
	if s.SimErrors != 0 {
		t.Errorf("hangs misclassified as simulator errors: %+v", s)
	}
}

// TestCampaignNoViableSeeds: a guest whose every execution is a simulator
// error (read(2) into an unmapped buffer) leaves the corpus empty after the
// seed phase; the campaign must fail cleanly instead of entering the
// mutation loop (which used to panic in rng.Intn(0)).
func TestCampaignNoViableSeeds(t *testing.T) {
	b := asm.NewBuilder(riscv.RV64GC)
	b.Func("main")
	// read(0, <unmapped>, 64): the input copy-in faults, so kernel Run
	// returns an error on every execution.
	b.Li(riscv.A7, 63)
	b.Li(riscv.A0, 0)
	b.Li(riscv.A1, 8)
	b.Li(riscv.A2, 64)
	b.Ecall()
	b.Li(riscv.A0, 0)
	b.Li(riscv.A7, 93)
	b.Ecall()
	img, err := b.Build("badread", "main")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Image: img, MaxExecs: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err == nil {
		t.Fatal("campaign with no viable seed returned nil")
	}
	s := c.Snapshot()
	if !s.Done {
		t.Error("failed campaign not marked done")
	}
	if s.SimErrors == 0 {
		t.Errorf("seed failures not counted as simulator errors: %+v", s)
	}
	if s.Corpus != 0 {
		t.Errorf("corpus %d, want 0", s.Corpus)
	}
}

// TestCampaignContextCancel: campaigns stop promptly when canceled.
func TestCampaignContextCancel(t *testing.T) {
	c, err := New(Config{Image: targetImage(t), MaxExecs: 1 << 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Run(ctx); err == nil {
		t.Error("canceled campaign returned nil")
	}
	if !c.Snapshot().Done {
		t.Error("canceled campaign not marked done")
	}
}

// TestCorpusEntriesCopies: corpus reads are safe and independent copies.
func TestCorpusEntriesCopies(t *testing.T) {
	c, err := New(Config{Image: targetImage(t), MaxExecs: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	es := c.CorpusEntries()
	if len(es) == 0 {
		t.Fatal("empty corpus")
	}
	es[0][0] ^= 0xFF
	if bytes.Equal(es[0], c.CorpusEntries()[0]) {
		t.Error("CorpusEntries aliases campaign-internal state")
	}
}

// TestCampaignExitCodeIsNotACrash: a guest that calls exit(139) on its own
// is not triaged as a SIGSEGV crash; one that dereferences null is, under
// signal 11.
func TestCampaignExitCodeIsNotACrash(t *testing.T) {
	for _, nullDeref := range []bool{false, true} {
		b := asm.NewBuilder(riscv.RV64GC)
		b.Func("main")
		if nullDeref {
			b.Load(riscv.LD, riscv.T0, riscv.Zero, 0)
		}
		b.Li(riscv.A0, 139)
		b.Li(riscv.A7, 93)
		b.Ecall()
		img, err := b.Build("exit139", "main")
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{Image: img, MaxExecs: 20, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		s := c.Snapshot()
		switch {
		case !nullDeref && len(s.Crashes) != 0:
			t.Errorf("voluntary exit(139) triaged as crashes %+v", s.Crashes)
		case nullDeref && (len(s.Crashes) != 1 || s.Crashes[0].Signal != 11):
			t.Errorf("null dereference triaged as %+v, want one signal-11 bucket", s.Crashes)
		}
	}
}
