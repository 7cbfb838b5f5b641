// Command benchmark measures Chimera end to end and layer by layer.
//
// It serves the real service.Handler() on loopback, drives it with two
// closed-loop clients in one process, checks every answer against a
// reference and prints one JSON result as its last line of output:
//
//	go run . -workload rewrite-cold -seed 1 -seconds 20 -trace 0
//
// Workloads: rewrite-cold, rewrite-warm, run, fuzz, fig11 (README.md says
// what each stresses and why). With -trace 0 the result carries the
// end-to-end metrics; with -trace 1 a traced run carries the per-layer
// ones. The process exits non-zero when set-up fails or any answer is
// wrong.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/service"
	"github.com/eurosys26p57/chimera/internal/store"
)

// load is one workload: a traffic mix: seeded inputs, a request per index, and the
// checks on the answers.
type load interface {
	// setup builds the inputs from seed and prepares the server (prewarm,
	// reference answers). It is timed as set-up, never as load.
	setup(ctx context.Context, e *env, seed int64) error
	// op sends request i of the stream on c and checks its answer.
	op(ctx context.Context, c *client, i int) error
	// verify runs the checks that need the whole window; it returns how
	// many answers failed and the first failure.
	verify() (int, error)
	// replay returns the binaries the traced run pushes through each layer.
	replay() ([]*obj.Image, error)
	// info returns workload-specific observations for the info line;
	// wall is the window's length in seconds.
	info(wall float64) map[string]any
}

// workloads maps names to constructors; each run builds fresh state.
var workloads = map[string]func() load{
	"rewrite-cold": newRewriteCold,
	"rewrite-warm": newRewriteWarm,
	"run":          newRunLoad,
	"fuzz":         newFuzzLoad,
	"fig11":        newFig11Load,
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

// warmupOps is the untimed warm-up each set-up ends with: two requests per
// client, so connections, caches and lazy state are live before timing.
// Set-up k warms up with requests k·warmupOps onwards, so the set-ups
// between them send a stretch of the stream long enough to hold its usual
// mix, and setup_s does not hang on what the seed put first.
const warmupOps = 2 * clients

// traceCapacity holds every server trace of a traced window.
const traceCapacity = 1 << 14

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
	// wrap, when set, wraps each server's handler; the oracle tests use it
	// to corrupt answers on the wire.
	wrap func(http.Handler) http.Handler
}

// report is everything one run observed: the result line plus the
// workload's own observations and the failures' first messages.
type report struct {
	result
	info     map[string]any
	failures []string
}

func main() {
	var o options
	var trace int
	var history string
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for a traced run reporting per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "traced run: write every span to this JSON file")
	flag.StringVar(&history, "history", "", "append this run as one JSON line to this file")
	flag.Parse()
	o.trace = trace == 1
	if workloads[o.workload] == nil || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need -workload (%s), -seconds >= 1, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	os.Exit(benchMain(o, history, os.Stdout, os.Stderr))
}

// benchMain runs one benchmark and prints the info line and the result
// line. It returns the exit code: 0 only when set-up succeeded and every
// answer was correct.
func benchMain(o options, history string, stdout, stderr io.Writer) int {
	rep, err := runBench(context.Background(), o)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintln(stderr, "benchmark: FAILED:", f)
	}
	info, err := json.Marshal(map[string]any{"workload": o.workload, "seed": o.seed, "info": rep.info})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(info))
	fmt.Fprintln(stdout, string(line))
	if history != "" {
		if err := appendHistory(history, o, rep); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runBench sets the workload up setupRuns times (keeping the last), runs
// the timed window, checks the answers and, for a traced run, replays the
// first requests layer by layer.
func runBench(ctx context.Context, o options) (*report, error) {
	cfg := service.Config{}
	if o.trace {
		cfg.TraceCapacity = traceCapacity
	}
	var (
		e      *env
		w      load
		setups []float64
		next   atomic.Int64
		warm   []outcome
	)
	for k := 0; k < setupRuns; k++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = startEnv(cfg, o.wrap); err != nil {
			return nil, err
		}
		w = workloads[o.workload]()
		next.Store(int64(k * warmupOps))
		if err := w.setup(ctx, e, o.seed); err != nil {
			e.close()
			return nil, fmt.Errorf("setting up %s: %w", o.workload, err)
		}
		warm, _ = drive(ctx, e, w, time.Minute, (k+1)*warmupOps, &next, nil)
		for _, out := range warm {
			if out.err != nil {
				e.close()
				return nil, fmt.Errorf("warming up %s: %w", o.workload, out.err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	// Start the window from a collected heap, not mid-way through paying
	// for set-up garbage.
	runtime.GC()
	window := time.Duration(o.seconds) * time.Second
	before := e.srv.Stats().Store
	var outs, traced []outcome
	var wall time.Duration
	var rec *recorder
	if o.trace {
		// First half untraced, second half traced: the p50 difference is
		// the tracing overhead.
		outs, wall = drive(ctx, e, w, window/2, math.MaxInt, &next, nil)
		rec = newRecorder()
		var w2 time.Duration
		traced, w2 = drive(ctx, e, w, window-window/2, math.MaxInt, &next, rec)
		wall += w2
	} else {
		outs, wall = drive(ctx, e, w, window, math.MaxInt, &next, nil)
	}
	after := e.srv.Stats().Store

	all := append(append([]outcome(nil), outs...), traced...)
	rep := &report{}
	attempted, failed, okMS := tally(all)
	// The kept set-up's warm-up answers were checked too (and verify sees
	// them), so they count as attempted; they all passed or set-up failed.
	attempted += len(warm)
	var firstErr error
	for _, out := range all {
		if out.err != nil && firstErr == nil {
			firstErr = out.err
		}
	}
	vfailed, verr := w.verify()
	failed += vfailed
	if firstErr == nil {
		firstErr = verr
	}
	if firstErr != nil {
		rep.failures = append(rep.failures, firstErr.Error())
	}
	rep.Attempted, rep.Failed = attempted, failed
	sum := summarize(okMS)
	rep.info = map[string]any{
		"n":         sum.N,
		"fail_frac": failFrac(attempted, failed),
		"wall_s":    wall.Seconds(),
		"setups_s":  setups,
	}
	for k, v := range w.info(wall.Seconds()) {
		rep.info[k] = v
	}

	if !o.trace {
		rep.Metrics = map[string]metric{
			"setup_s":     {median(setups), "s"},
			"p50_ms":      {sum.P50, "ms"},
			"ops_per_s":   {float64(len(all)) / wall.Seconds(), "1/s"},
			"peak_rss_mb": {peakRSSMiB(), "MiB"},
		}
		if sum.HasP90 {
			rep.Metrics["p90_ms"] = metric{sum.P90, "ms"}
		}
	} else {
		m, err := tracedMetrics(ctx, e, w, rec, outs, traced, before, after)
		if err != nil {
			rep.failures = append(rep.failures, err.Error())
			rep.Failed++
		}
		rep.Metrics = m
		if o.traceOut != "" {
			if err := rec.writeSpans(o.traceOut); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	rep.Correct = rep.Failed == 0 && len(rep.failures) == 0
	return rep, nil
}

// maxWindowTraces is how many of the traced window's requests get their
// server trace fetched and nested.
const maxWindowTraces = 200

// maxAccountingGapPct is the largest share of a replayed request's wall
// time its spans may leave unaccounted.
const maxAccountingGapPct = 5

// tracedMetrics fetches the window's server traces, replays the
// workload's first binaries through every layer and derives the per-layer
// metrics.
func tracedMetrics(ctx context.Context, e *env, w load, rec *recorder, untraced, traced []outcome, before, after store.TieredStats) (map[string]metric, error) {
	c := e.clients[0]
	rec.mu.Lock()
	windowRefs := len(rec.served)
	rec.mu.Unlock()
	imgs, err := w.replay()
	if err != nil {
		return nil, err
	}
	var n layerCounts
	var firstErr error
	for k, img := range imgs {
		if err := replayBinary(ctx, c, rec, replayReq0+k, img, &n); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	rec.mu.Lock()
	refs := append([]servedRef(nil), rec.served[:min(windowRefs, maxWindowTraces)]...)
	refs = append(refs, rec.served[windowRefs:]...)
	rec.mu.Unlock()
	if err := fetchServerTraces(ctx, c, rec, refs); err != nil && firstErr == nil {
		firstErr = err
	}

	hits := after.MemHits + after.DiskHits - before.MemHits - before.DiskHits
	lookups := hits + after.Misses - before.Misses
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(hits) / float64(lookups)
	}
	_, _, u := tally(untraced)
	_, _, t := tally(traced)
	overhead := 0.0
	if len(u) > 0 && len(t) > 0 {
		overhead = 100 * (median(t)/median(u) - 1)
	}
	gap := accountingGapPct(rec)
	if gap > maxAccountingGapPct && firstErr == nil {
		firstErr = fmt.Errorf("replay accounting: spans leave %.1f%% of a replayed request unaccounted (limit %d%%)", gap, maxAccountingGapPct)
	}
	return perLayer(rec, &n, hitRatio, overhead, gap), firstErr
}

// historyLine is one run in a -history file.
type historyLine struct {
	Commit   string            `json:"commit"`
	Time     time.Time         `json:"time"`
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    bool              `json:"trace"`
	Correct  bool              `json:"correct"`
	Attempt  int               `json:"attempted"`
	Failed   int               `json:"failed"`
	Metrics  map[string]metric `json:"metrics"`
	Info     map[string]any    `json:"info"`
}

// appendHistory appends one line per run; existing lines are never
// rewritten.
func appendHistory(path string, o options, rep *report) error {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	b, err := json.Marshal(historyLine{
		Commit: commit, Time: time.Now().UTC(), Workload: o.workload, Seed: o.seed,
		Seconds: o.seconds, Trace: o.trace, Correct: rep.Correct,
		Attempt: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics, Info: rep.info,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening history: %w", err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("appending history: %w", err)
	}
	return f.Close()
}
