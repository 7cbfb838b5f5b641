// Package telemetry is Chimera's dependency-free observability subsystem:
// a metrics registry (atomic counters, scrape-time gauges, and fixed-bucket
// histograms with label support and a zero-allocation hot path) exposed in
// Prometheus text format, a lightweight request tracer with ring-buffer
// retention (trace.go), and symbolized rendering of guest profiles
// (profile.go).
//
// The package deliberately imports nothing from the repository but the
// dependency-free instrument ABI, so every layer — service, kernel,
// commands — can publish into it without dependency cycles. All hot-path
// instruments (Counter, Histogram) are nil-safe: a nil instrument records
// nothing and costs one branch, which is the "telemetry off" mode for
// optional call sites.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// nameRE is the registry's naming law: every metric is chimera-prefixed,
// lower-case, and underscore-separated. scripts/check.sh asserts it via
// the metrics-lint unit tests.
var nameRE = regexp.MustCompile(`^chimera_[a-z_]+$`)

// ValidName reports whether name satisfies the metric naming law.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// familyKind distinguishes exposition TYPE lines.
type familyKind uint8

const (
	kindCounter familyKind = iota
	kindGauge
	kindHistogram
)

func (k familyKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration (Counter, GaugeFunc, ...) panics on an
// invalid or duplicate name or empty help text — metrics are wired at
// construction time, so a bad name is a programming error, not a runtime
// condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric family: its children are the per-label-value
// instruments. Label-less instruments are the single child with key "".
type family struct {
	name   string
	help   string
	kind   familyKind
	labels []string

	mu       sync.Mutex
	children map[string]child
	order    []string // child keys in insertion order (sorted at exposition)

	buckets []float64 // histogram upper bounds (without +Inf)
}

type child interface {
	write(w io.Writer, fam *family, labelKey string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register creates (or fails on) a family.
func (r *Registry) register(name, help string, kind familyKind, labels []string, buckets []float64) *family {
	if !ValidName(name) {
		panic(fmt.Sprintf("telemetry: metric name %q violates %s", name, nameRE))
	}
	if strings.TrimSpace(help) == "" {
		panic(fmt.Sprintf("telemetry: metric %q has no help text", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", name))
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		children: make(map[string]child),
		buckets:  buckets,
	}
	r.families[name] = f
	return f
}

// child returns the instrument for the given label values, creating it via
// mk on first use. Label cardinality is enforced here.
func (f *family) child(values []string, mk func() child) child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := mk()
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// --- Counter -------------------------------------------------------------

// Counter is a monotonically increasing uint64. The zero value is usable;
// a nil Counter records nothing.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds delta.
func (c *Counter) Add(delta uint64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) write(w io.Writer, fam *family, labelKey string) {
	fmt.Fprintf(w, "%s%s %d\n", fam.name, labelKey, c.v.Load())
}

// Counter registers a label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	return f.child(nil, func() child { return &Counter{} }).(*Counter)
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, labels, nil)}
}

// With returns the child counter for the label values, creating it on first
// use. Hot paths should call With once and keep the returned *Counter.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() child { return &Counter{} }).(*Counter)
}

// Each calls fn for every existing child with its label values.
func (v *CounterVec) Each(fn func(values []string, c *Counter)) {
	v.f.mu.Lock()
	keys := append([]string(nil), v.f.order...)
	v.f.mu.Unlock()
	for _, k := range keys {
		v.f.mu.Lock()
		c := v.f.children[k]
		v.f.mu.Unlock()
		fn(splitKey(k), c.(*Counter))
	}
}

// counterFunc samples a count another layer already owns at exposition
// time: the counter twin of gaugeFunc.
type counterFunc struct{ fn func() uint64 }

func (c counterFunc) write(w io.Writer, fam *family, labelKey string) {
	fmt.Fprintf(w, "%s%s %d\n", fam.name, labelKey, c.fn())
}

// CounterFunc registers a counter whose value is sampled from fn at scrape
// time. fn must be safe to call from any goroutine and must never decrease.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	f := r.register(name, help, kindCounter, nil, nil)
	f.child(nil, func() child { return counterFunc{fn: fn} })
}

// CounterFuncVec registers a counter family with one label, each child
// sampled at scrape time from fns[value] (same contract as CounterFunc).
func (r *Registry) CounterFuncVec(name, help, label string, fns map[string]func() uint64) {
	f := r.register(name, help, kindCounter, []string{label}, nil)
	for value, fn := range fns {
		f.child([]string{value}, func() child { return counterFunc{fn: fn} })
	}
}

// --- Gauge ---------------------------------------------------------------

// gaugeFunc samples a callback at exposition time (queue depths, cache
// bytes, uptime — state that already lives somewhere else).
type gaugeFunc struct{ fn func() float64 }

func (g gaugeFunc) write(w io.Writer, fam *family, labelKey string) {
	fmt.Fprintf(w, "%s%s %s\n", fam.name, labelKey, formatFloat(g.fn()))
}

// GaugeFunc registers a gauge whose value is sampled from fn at scrape
// time. fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil, nil)
	f.child(nil, func() child { return gaugeFunc{fn: fn} })
}

// --- Histogram -----------------------------------------------------------

// Histogram is a fixed-bucket histogram with atomic counts, sum, and max.
// Observe is allocation-free; a nil Histogram records nothing.
type Histogram struct {
	upper   []float64 // bucket upper bounds; implicit +Inf follows
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
	maxBits atomic.Uint64
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, buckets: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one value (allocation-free: hand-rolled binary search,
// CAS loops for the float sum and max).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound is >= v.
	lo, hi := 0, len(h.upper)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.upper[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nb) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram's state.
type HistSnapshot struct {
	Upper  []float64 // bucket upper bounds (without +Inf)
	Counts []uint64  // len(Upper)+1; last is the +Inf bucket
	Count  uint64
	Sum    float64
	Max    float64
}

// Snapshot copies the histogram's counters. The per-bucket loads are not
// mutually atomic; totals may be ahead of buckets by in-flight updates.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Upper:  h.upper,
		Counts: make([]uint64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Max:    math.Float64frombits(h.maxBits.Load()),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the upper edge of the bucket holding the q-th observation, or the
// observed max for the +Inf bucket.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen > rank {
			if i < len(s.Upper) {
				return s.Upper[i]
			}
			return s.Max
		}
	}
	return s.Max
}

func (h *Histogram) write(w io.Writer, fam *family, labelKey string) {
	s := h.Snapshot()
	var cum uint64
	for i, upper := range s.Upper {
		cum += s.Counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name,
			mergeLabel(labelKey, "le", formatFloat(upper)), cum)
	}
	cum += s.Counts[len(s.Counts)-1]
	fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name, mergeLabel(labelKey, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", fam.name, labelKey, formatFloat(s.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", fam.name, labelKey, s.Count)
}

// Histogram registers a label-less histogram with the given bucket upper
// bounds (must be sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	checkBuckets(name, buckets)
	f := r.register(name, help, kindHistogram, nil, buckets)
	return f.child(nil, func() child { return newHistogram(buckets) }).(*Histogram)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers a histogram family with labels.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	checkBuckets(name, buckets)
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels, buckets)}
}

// With returns the child histogram for the label values. Hot paths should
// call With once and keep the returned *Histogram.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() child { return newHistogram(v.f.buckets) }).(*Histogram)
}

// Each calls fn for every existing child with its label values.
func (v *HistogramVec) Each(fn func(values []string, h *Histogram)) {
	v.f.mu.Lock()
	keys := append([]string(nil), v.f.order...)
	v.f.mu.Unlock()
	for _, k := range keys {
		v.f.mu.Lock()
		c := v.f.children[k]
		v.f.mu.Unlock()
		fn(splitKey(k), c.(*Histogram))
	}
}

func checkBuckets(name string, buckets []float64) {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q has no buckets", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending", name))
		}
	}
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start, each factor times the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets are the default latency bounds in seconds: powers of two
// from 1µs to ~16.8s (the same resolution the service's original /stats
// histograms used), +Inf implicit.
func DurationBuckets() []float64 { return ExpBuckets(1e-6, 2, 25) }

// --- Exposition ----------------------------------------------------------

// FamilyInfo describes one registered family (for the metrics-lint tests).
type FamilyInfo struct {
	Name   string
	Help   string
	Kind   string
	Labels []string
}

// Families lists registered families sorted by name.
func (r *Registry) Families() []FamilyInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FamilyInfo, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, FamilyInfo{
			Name: f.name, Help: f.help, Kind: f.kind.String(),
			Labels: append([]string(nil), f.labels...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WritePrometheus renders every family in Prometheus text exposition
// format, families and children sorted for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		children := make([]child, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		if len(children) == 0 {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for i, c := range children {
			c.write(w, f, labelString(f.labels, splitKey(keys[i])))
		}
	}
}

// ServeHTTP makes the registry a /metrics handler.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WritePrometheus(w)
}

// labelString renders {k="v",...} or "" for label-less children.
func labelString(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		fmt.Fprintf(&b, "%s=%q", n, v)
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabel appends one more label pair to an existing label string (for
// histogram le labels).
func mergeLabel(labelKey, name, value string) string {
	pair := fmt.Sprintf("%s=%q", name, value)
	if labelKey == "" {
		return "{" + pair + "}"
	}
	return labelKey[:len(labelKey)-1] + "," + pair + "}"
}

func splitKey(key string) []string {
	if key == "" {
		return nil
	}
	return strings.Split(key, "\x00")
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders floats the way Prometheus clients expect: integers
// without a decimal point, everything else in shortest-round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
