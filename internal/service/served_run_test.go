package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/eurosys26p57/chimera/internal/corpus"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// servedRunBudget bounds every run of TestServedRewriteRunsLikeInProcess,
// served and in-process alike.
const servedRunBudget = 50_000_000

// runOutcome is what a run of an image shows a client: a clean exit's
// code, output, cycles and kernel counters, or why it did not exit.
type runOutcome struct {
	Failure  string // "", or how the run ended without exiting
	ExitCode uint64
	Output   string
	Cycles   uint64
	Counters kernel.Counters
}

// runInProcess runs img on a core of the given ISA the way doRun does.
func runInProcess(t *testing.T, img *obj.Image, isa riscv.Ext) runOutcome {
	t.Helper()
	p, err := kernel.NewProcess(img.Name, []kernel.Variant{{ISA: img.ISA, Image: img}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MigrateTo(isa); err != nil {
		t.Fatal(err)
	}
	p.CPU.MaxInstret = servedRunBudget
	cycles, st, err := p.RunToExit(context.Background(), runSliceInstr)
	switch {
	case err != nil:
		return runOutcome{Failure: err.Error()}
	case p.Signal != 0:
		return runOutcome{Failure: fmt.Sprintf("killed by signal %d", p.Signal)}
	case st != kernel.StatusExited:
		return runOutcome{Failure: fmt.Sprintf("status %v", st)}
	}
	return runOutcome{ExitCode: p.ExitCode, Output: string(p.Output), Cycles: cycles, Counters: p.Counters}
}

// postJSON POSTs body to path and returns the status and response bytes.
func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (int, []byte) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestServedRewriteRunsLikeInProcess: an image served by /rewrite and run
// by /run on rv64gc behaves exactly like a kernel run of the in-process
// rewrite — the image alone carries every runtime assist a method needs,
// Safer's address map and pointer check included — and every rewrite the
// rewriter accepts runs the program to its original exit and output or,
// where the method cannot reach the code, fails closed.
func TestServedRewriteRunsLikeInProcess(t *testing.T) {
	var imgs []*obj.Image
	for _, fam := range []string{"asmidioms", "misaligned", "oversized", "densetable"} {
		for seed := int64(1); seed <= 2; seed++ {
			prog, err := corpus.Build(fam, seed)
			if err != nil {
				t.Fatal(err)
			}
			imgs = append(imgs, prog.Image)
		}
	}
	fib, err := workload.Fibonacci(10, riscv.RV64GC, true)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := workload.Matmul(6, true, true)
	if err != nil {
		t.Fatal(err)
	}
	imgs = append(imgs, fib, mm)

	// Without the resolver, Safer drops densetable's table-only arms with
	// the original text, so the first jump through the table faults: a
	// fail-closed kill, which the eval matrix grades "reject". Every other
	// accepted rewrite must run to the original's exit and output.
	failClosed := map[string]bool{
		"densetable-1/safer/resolve=false": true,
		"densetable-2/safer/resolve=false": true,
	}

	srv := New(Config{Workers: 2, RunMaxInstret: servedRunBudget})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, img := range imgs {
		orig := runInProcess(t, img.Clone(), img.ISA)
		if orig.Failure != "" {
			t.Fatalf("%s: original does not exit: %s", img.Name, orig.Failure)
		}
		for _, method := range rewriters.Methods {
			for _, resolve := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/resolve=%t", img.Name, method, resolve)
				rw, rwErr := rewriters.Rewrite(img.Clone(), rewriters.Config{Method: method, Target: riscv.RV64GC, Resolve: resolve})

				status, body := postJSON(t, ts, "/rewrite", rewriteHTTPRequest{
					Method: method, Target: "rv64gc", Resolve: resolve, Image: wire(t, img)})
				var served RewriteResult
				if err := json.Unmarshal(body, &served); status != http.StatusOK || err != nil {
					t.Fatalf("%s: /rewrite status %d: %s", name, status, body)
				}
				if rwErr != nil {
					if !served.Degraded {
						t.Errorf("%s: in-process rewrite rejected (%v) but the served one was not degraded", name, rwErr)
					}
					continue
				}
				if served.Degraded || !bytes.Equal(served.ImageBytes, wire(t, rw.Image)) {
					t.Errorf("%s: served image differs from the in-process rewrite (degraded %t: %s)", name, served.Degraded, served.DegradedReason)
					continue
				}

				want := runInProcess(t, rw.Image, riscv.RV64GC)
				var got runOutcome
				status, body = postJSON(t, ts, "/run", runHTTPRequest{ISA: "rv64gc", Image: served.ImageBytes})
				if status == http.StatusOK {
					var res RunResult
					if err := json.Unmarshal(body, &res); err != nil {
						t.Fatalf("%s: /run answer: %v", name, err)
					}
					got = runOutcome{ExitCode: res.ExitCode, Output: res.Output, Cycles: res.Cycles, Counters: res.Counters}
				} else {
					// Compare a kill by its signal, as runInProcess reports it.
					var e errorResponse
					json.Unmarshal(body, &e)
					got.Failure = fmt.Sprintf("/run status %d: %s", status, e.Error)
					if i := strings.Index(e.Error, "killed by signal"); i >= 0 {
						got.Failure = e.Error[i:]
					}
				}
				if got != want {
					t.Errorf("%s: served run differs from in-process run:\n served %+v\n kernel %+v", name, got, want)
				}
				if failClosed[name] {
					if got.Failure == "" {
						t.Errorf("%s: expected a fail-closed kill, got %+v", name, got)
					}
					continue
				}
				if got.Failure != "" || got.ExitCode != orig.ExitCode || got.Output != orig.Output {
					t.Errorf("%s: served run %+v, original exits %d with output %q", name, got, orig.ExitCode, orig.Output)
				}
			}
		}
	}
}
