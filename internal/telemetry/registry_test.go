package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrency hammers every instrument type from many
// goroutines (run under -race by scripts/check.sh) and checks the totals.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("chimera_test_ops_total", "concurrent increments")
	vec := r.CounterVec("chimera_test_labeled_total", "labeled increments", "worker")
	h := r.Histogram("chimera_test_seconds", "concurrent histogram", DurationBuckets())

	const workers, perWorker = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		child := vec.With("w") // shared child: contended on purpose
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				child.Add(2)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := vec.With("w").Value(); got != 2*workers*perWorker {
		t.Errorf("labeled counter = %d, want %d", got, 2*workers*perWorker)
	}
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", s.Count, workers*perWorker)
	}
	if s.Max != 0.001 {
		t.Errorf("histogram max = %v, want 0.001", s.Max)
	}
}

// TestHotPathAllocs asserts the counter and histogram hot paths allocate
// nothing — the condition for wiring them into the emulator and the
// service request path.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("chimera_test_allocs_total", "alloc-free counter")
	h := r.Histogram("chimera_test_allocs_seconds", "alloc-free histogram", DurationBuckets())
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		h.Observe(0.00042)
	}); n != 0 {
		t.Errorf("hot path allocates %v times per run, want 0", n)
	}
	// Nil instruments (telemetry off) must also be free.
	var nc *Counter
	var nh *Histogram
	if n := testing.AllocsPerRun(1000, func() {
		nc.Inc()
		nh.Observe(1)
	}); n != 0 {
		t.Errorf("nil hot path allocates %v times per run, want 0", n)
	}
}

// TestPrometheusExposition is the golden test for the text format.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("chimera_requests_total", "requests served")
	c.Add(42)
	vec := r.CounterVec("chimera_errors_total", "errors by endpoint", "endpoint")
	vec.With("run").Add(2)
	vec.With("rewrite").Inc()
	r.GaugeFunc("chimera_queue_depth", "jobs queued", func() float64 { return 3 })
	r.GaugeFunc("chimera_uptime_seconds", "process uptime", func() float64 { return 1.5 })
	h := r.Histogram("chimera_latency_seconds", "request latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(2)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	want := `# HELP chimera_errors_total errors by endpoint
# TYPE chimera_errors_total counter
chimera_errors_total{endpoint="rewrite"} 1
chimera_errors_total{endpoint="run"} 2
# HELP chimera_latency_seconds request latency
# TYPE chimera_latency_seconds histogram
chimera_latency_seconds_bucket{le="0.001"} 1
chimera_latency_seconds_bucket{le="0.01"} 1
chimera_latency_seconds_bucket{le="0.1"} 2
chimera_latency_seconds_bucket{le="+Inf"} 3
chimera_latency_seconds_sum 2.0505
chimera_latency_seconds_count 3
# HELP chimera_queue_depth jobs queued
# TYPE chimera_queue_depth gauge
chimera_queue_depth 3
# HELP chimera_requests_total requests served
# TYPE chimera_requests_total counter
chimera_requests_total 42
# HELP chimera_uptime_seconds process uptime
# TYPE chimera_uptime_seconds gauge
chimera_uptime_seconds 1.5
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestCounterFuncExposition checks that scrape-time counters render as
// counters and re-sample their source on every scrape.
func TestCounterFuncExposition(t *testing.T) {
	r := NewRegistry()
	var hits, mem, disk uint64 = 7, 3, 1
	r.CounterFunc("chimera_hits_total", "hits owned elsewhere", func() uint64 { return hits })
	r.CounterFuncVec("chimera_tier_hits_total", "hits by tier", "tier", map[string]func() uint64{
		"memory": func() uint64 { return mem },
		"disk":   func() uint64 { return disk },
	})
	want := func(hits, mem, disk int) string {
		return fmt.Sprintf(`# HELP chimera_hits_total hits owned elsewhere
# TYPE chimera_hits_total counter
chimera_hits_total %d
# HELP chimera_tier_hits_total hits by tier
# TYPE chimera_tier_hits_total counter
chimera_tier_hits_total{tier="disk"} %d
chimera_tier_hits_total{tier="memory"} %d
`, hits, disk, mem)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if got := buf.String(); got != want(7, 3, 1) {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want(7, 3, 1))
	}
	hits, mem, disk = 8, 5, 2
	buf.Reset()
	r.WritePrometheus(&buf)
	if got := buf.String(); got != want(8, 5, 2) {
		t.Errorf("second scrape did not re-sample:\n--- got ---\n%s\n--- want ---\n%s", got, want(8, 5, 2))
	}
}

// TestMetricNameValidation covers the naming law the metrics-lint step in
// scripts/check.sh relies on.
func TestMetricNameValidation(t *testing.T) {
	valid := []string{"chimera_requests_total", "chimera_a", "chimera_queue_depth"}
	invalid := []string{"requests_total", "chimera_Requests", "chimera_req-total",
		"chimera_req2_total", "chimera", "Chimera_requests"}
	for _, n := range valid {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false, want true", n)
		}
	}
	for _, n := range invalid {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true, want false", n)
		}
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad name", func() { NewRegistry().Counter("bad_name", "help") })
	mustPanic("empty help", func() { NewRegistry().Counter("chimera_ok_total", "  ") })
	mustPanic("duplicate", func() {
		r := NewRegistry()
		r.Counter("chimera_dup_total", "first")
		r.Counter("chimera_dup_total", "second")
	})
}

// TestHistogramQuantile checks the upper-bound quantile estimate used by
// the service's /stats latency summaries.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("chimera_q_seconds", "quantile test", []float64{1, 2, 4, 8})
	for i := 0; i < 90; i++ {
		h.Observe(0.5) // bucket le=1
	}
	for i := 0; i < 10; i++ {
		h.Observe(5) // bucket le=8
	}
	h.Observe(100) // +Inf bucket; also the max
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	if got := s.Quantile(0.95); got != 8 {
		t.Errorf("p95 = %v, want 8", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Errorf("p100 = %v, want 100 (observed max)", got)
	}
	if zero := (HistSnapshot{}); zero.Quantile(0.5) != 0 {
		t.Error("empty snapshot quantile should be 0")
	}
}

// TestFamilies covers the lint-facing introspection API.
func TestFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("chimera_b_total", "second")
	r.CounterVec("chimera_a_total", "first", "x", "y")
	fams := r.Families()
	if len(fams) != 2 || fams[0].Name != "chimera_a_total" || fams[1].Name != "chimera_b_total" {
		t.Fatalf("families = %+v", fams)
	}
	if fams[0].Kind != "counter" || len(fams[0].Labels) != 2 {
		t.Errorf("family info = %+v", fams[0])
	}
	for _, f := range fams {
		if !ValidName(f.Name) || strings.TrimSpace(f.Help) == "" {
			t.Errorf("family %q fails lint", f.Name)
		}
	}
}
