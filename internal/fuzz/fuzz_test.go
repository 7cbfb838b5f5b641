package fuzz

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/eurosys26p57/chimera/internal/kernel"
)

// TestGeneratorPrograms is the generator self-test: every seed must produce
// a program that assembles, loads, and terminates cleanly within its cycle
// budget on a core matching its own ISA. A generator that emits hanging or
// faulting programs poisons every oracle axis built on top of it.
func TestGeneratorPrograms(t *testing.T) {
	n := int64(1000)
	if testing.Short() {
		n = 150
	}
	for seed := int64(0); seed < n; seed++ {
		s := Generate(seed, DefaultConfig())
		img, budget, err := s.Assemble()
		if err != nil {
			t.Fatalf("seed %d: assemble: %v", seed, err)
		}
		v, err := kernel.VariantFromImage(img)
		if err != nil {
			t.Fatalf("seed %d: variant: %v", seed, err)
		}
		p, err := newProc(v, img.ISA, false)
		if err != nil {
			t.Fatalf("seed %d: load: %v", seed, err)
		}
		r := runReport("original", p, img, budget)
		if r.SimError != "" {
			t.Errorf("seed %d: simulator error: %s", seed, r.SimError)
		}
		if r.Hang {
			t.Errorf("seed %d: exceeded budget %d", seed, budget)
		}
		if r.SimError == "" && !r.Hang && !p.Exited {
			t.Errorf("seed %d: stopped without exiting", seed)
		}
	}
}

// TestDiffEngines sweeps oracle axis A: the interpreter and the basic-block
// engine must be bit-identical (registers, memory, instret, cycles) on every
// generated program.
func TestDiffEngines(t *testing.T) {
	n := int64(60)
	if testing.Short() {
		n = 25
	}
	for seed := int64(0); seed < n; seed++ {
		s := Generate(seed, DefaultConfig())
		d, err := s.DiffEngines()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d != nil {
			t.Errorf("seed %d: %s", seed, d)
		}
	}
}

// TestDiffRewriters sweeps oracle axis B: every rewriter configuration
// (CHBP with SMILE/trap/general-register trampolines, Safer, ARMore, and the
// upgrade direction) must preserve exit code, output, and writable data.
func TestDiffRewriters(t *testing.T) {
	n := int64(40)
	if testing.Short() {
		n = 15
	}
	for seed := int64(0); seed < n; seed++ {
		s := Generate(seed, DefaultConfig())
		d, err := s.DiffRewriters()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d != nil {
			t.Errorf("seed %d: %s", seed, d)
		}
	}
}

// TestDiffMigration sweeps oracle axis C: fault-and-migrate scheduling on a
// heterogeneous machine must finish in exactly the single-core reference
// state, including instret and cycle counts.
func TestDiffMigration(t *testing.T) {
	n := int64(40)
	if testing.Short() {
		n = 15
	}
	for seed := int64(0); seed < n; seed++ {
		s := Generate(seed, DefaultConfig())
		d, err := s.DiffMigration()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d != nil {
			t.Errorf("seed %d: %s", seed, d)
		}
	}
}

// TestCorpusRegression replays the checked-in reproducers of previously
// found divergences. Each file is a minimized Spec that once exposed a real
// rewriter or generator bug; all must now pass every axis.
func TestCorpusRegression(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files found")
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var s Spec
			if err := json.Unmarshal(data, &s); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			d, err := s.Check(nil)
			if err != nil {
				t.Fatal(err)
			}
			if d != nil {
				t.Errorf("%s", d)
			}
		})
	}
}

// FuzzDifferential is the native fuzzing bridge for axes A and C: go's
// mutator explores the seed space, the structured generator turns each seed
// into a valid program, and the lockstep oracles decide.
func FuzzDifferential(f *testing.F) {
	for _, s := range []int64{0, 3, 4, 36, 53, 95, 1021} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		s := Generate(seed, DefaultConfig())
		d, err := s.DiffEngines()
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			t.Fatalf("%s", d)
		}
		d, err = s.DiffMigration()
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			t.Fatalf("%s", d)
		}
	})
}

// FuzzRewrite is the native fuzzing bridge for axis B (rewriter soundness).
func FuzzRewrite(f *testing.F) {
	for _, s := range []int64{0, 4, 36, 45, 53, 69, 95} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		s := Generate(seed, DefaultConfig())
		d, err := s.DiffRewriters()
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			t.Fatalf("%s", d)
		}
	})
}
