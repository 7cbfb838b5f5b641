package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test holds the program to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecNamesEveryWorkload(t *testing.T) {
	var names []string
	for _, w := range loadSpec(t).Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); len(got) != len(want) || !equalStrings(got, want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
}

func equalStrings(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// TestSmoke runs every workload for one second, untraced and traced, and
// checks that each run is correct and reports exactly the metrics
// BENCHMARK.json names, with their units. p90 is required only when the
// second held enough samples.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rep, err := runBench(context.Background(), options{workload: w.Name, seed: 1, seconds: 1, trace: traced})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct {
					t.Fatalf("traced=%t: %d of %d failed: %v", traced, rep.Failed, rep.Attempted, rep.failures)
				}
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
				}
				n := rep.info["n"].(int)
				reported := 0
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if m.Name == "p90_ms" && n < minTailSamples {
						if ok {
							t.Errorf("p90_ms reported from %d samples", n)
						}
						continue
					}
					if !ok {
						t.Errorf("traced=%t: metric %s missing", traced, m.Name)
						continue
					}
					reported++
					if got.Unit != m.Unit {
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if reported != len(rep.Metrics) {
					t.Errorf("traced=%t: %d metrics reported, %d named", traced, len(rep.Metrics), reported)
				}
				if traced && w.Name == "rewrite-warm" {
					if r := rep.Metrics["store.hit_ratio"].Value; r < 0.99 {
						t.Errorf("rewrite-warm store.hit_ratio = %v, want >= 0.99", r)
					}
				}
				if traced {
					if g := rep.Metrics["replay.accounting_gap_pct"].Value; g > maxAccountingGapPct {
						t.Errorf("replay spans leave %.2f%% unaccounted", g)
					}
				}
			}
		})
	}
}

func TestHistoryAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	rep := &report{result: result{Correct: true, Attempted: 3, Metrics: map[string]metric{"p50_ms": {1.5, "ms"}}}}
	o := options{workload: "fuzz", seed: 4, seconds: 1}
	for i := 0; i < 2; i++ {
		if err := appendHistory(path, o, rep); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("%d lines after two runs, want 2", len(lines))
	}
	var h historyLine
	if err := json.Unmarshal(lines[0], &h); err != nil {
		t.Fatal(err)
	}
	if h.Commit == "" || h.Workload != "fuzz" || h.Seed != 4 || h.Metrics["p50_ms"].Value != 1.5 {
		t.Fatalf("history line %+v", h)
	}
}
