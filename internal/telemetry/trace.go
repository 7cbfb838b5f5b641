package telemetry

// Request tracing: a lightweight span API that records the full lifecycle
// of one request — cache lookup, singleflight, the wait for an execution
// slot, the rewrite attempt, fallback — so a degraded response can be explained
// after the fact. Finished traces are retained in a fixed-capacity ring
// buffer and exported as JSON (the service's /trace/{id} endpoint).
//
// Every method is nil-safe: a nil *Trace or *Span records nothing, so call
// sites instrument unconditionally and untraced paths cost one branch.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer mints traces and retains the most recent finished ones.
type Tracer struct {
	epoch int64 // process-start nanos, part of every ID
	seq   atomic.Uint64

	mu   sync.Mutex
	cap  int
	ring []*Trace // oldest-first window of finished traces
	byID map[string]*Trace
}

// NewTracer returns a tracer retaining up to capacity finished traces
// (default 256 when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	return &Tracer{
		epoch: time.Now().UnixNano(),
		cap:   capacity,
		byID:  make(map[string]*Trace, capacity),
	}
}

// Start begins a new trace. The ID is unique within the process and stable
// enough across restarts (epoch-prefixed) for log correlation.
func (t *Tracer) Start(name string) *Trace {
	if t == nil {
		return nil
	}
	n := t.seq.Add(1)
	return &Trace{
		tracer: t,
		ID:     fmt.Sprintf("%x-%06x", uint64(t.epoch)&0xFFFF_FFFF, n),
		Name:   name,
		start:  time.Now(),
	}
}

// Get returns a finished trace by ID.
func (t *Tracer) Get(id string) (*Trace, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.byID[id]
	return tr, ok
}

// Len reports how many finished traces are retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// retain inserts a finished trace, evicting the oldest past capacity.
func (t *Tracer) retain(tr *Trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) >= t.cap {
		evicted := t.ring[0]
		t.ring = t.ring[1:]
		delete(t.byID, evicted.ID)
	}
	t.ring = append(t.ring, tr)
	t.byID[tr.ID] = tr
}

// Trace is one request's recorded lifecycle. Spans may be added from any
// goroutine until Finish.
type Trace struct {
	tracer *Tracer
	ID     string
	Name   string
	start  time.Time

	mu       sync.Mutex
	spans    []*Span
	attrs    []kv
	finished bool
	end      time.Time
}

type kv struct {
	K string
	V string
}

// Span is one timed stage within a trace.
type Span struct {
	tr    *Trace
	name  string
	start time.Time

	mu    sync.Mutex
	end   time.Time
	attrs []kv
	done  bool
}

// Span starts a named span. Nil-safe.
func (t *Trace) Span(name string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{tr: t, name: name, start: time.Now()}
	t.mu.Lock()
	if !t.finished {
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
	return sp
}

// Annotate attaches a key/value pair to the trace itself.
func (t *Trace) Annotate(k, v string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attrs = append(t.attrs, kv{k, v})
	t.mu.Unlock()
}

// Finish closes the trace and retains it in the tracer's ring buffer.
// Unclosed spans are ended at the finish time. Idempotent.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	t.end = now
	spans := t.spans
	t.mu.Unlock()
	for _, sp := range spans {
		sp.endAt(now, false)
	}
	if t.tracer != nil {
		t.tracer.retain(t)
	}
}

// Annotate attaches a key/value pair to the span.
func (sp *Span) Annotate(k, v string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.attrs = append(sp.attrs, kv{k, v})
	sp.mu.Unlock()
}

// End closes the span now. Idempotent; nil-safe.
func (sp *Span) End() { sp.endAt(time.Now(), true) }

func (sp *Span) endAt(now time.Time, explicit bool) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if !sp.done {
		sp.done = true
		sp.end = now
	} else if explicit {
		// Explicit End after an implicit Finish-close: keep the first end.
	}
	sp.mu.Unlock()
}

// Duration returns the span's elapsed time (0 while still open or nil).
func (sp *Span) Duration() time.Duration {
	if sp == nil {
		return 0
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if !sp.done {
		return 0
	}
	return sp.end.Sub(sp.start)
}

// --- JSON export ---------------------------------------------------------

// SpanJSON is the wire form of one span.
type SpanJSON struct {
	Name       string            `json:"name"`
	StartUS    int64             `json:"start_us"` // offset from trace start
	DurationUS int64             `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// TraceJSON is the wire form of one finished trace.
type TraceJSON struct {
	ID         string            `json:"id"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationUS int64             `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Spans      []SpanJSON        `json:"spans"`
}

// Export snapshots the trace for JSON serialization.
func (t *Trace) Export() TraceJSON {
	if t == nil {
		return TraceJSON{}
	}
	t.mu.Lock()
	out := TraceJSON{
		ID:    t.ID,
		Name:  t.Name,
		Start: t.start,
		Attrs: attrMap(t.attrs),
	}
	if t.finished {
		out.DurationUS = t.end.Sub(t.start).Microseconds()
	}
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	out.Spans = make([]SpanJSON, 0, len(spans))
	for _, sp := range spans {
		sp.mu.Lock()
		sj := SpanJSON{
			Name:    sp.name,
			StartUS: sp.start.Sub(t.start).Microseconds(),
			Attrs:   attrMap(sp.attrs),
		}
		if sp.done {
			sj.DurationUS = sp.end.Sub(sp.start).Microseconds()
		}
		sp.mu.Unlock()
		out.Spans = append(out.Spans, sj)
	}
	return out
}

// MarshalJSON renders the trace via Export.
func (t *Trace) MarshalJSON() ([]byte, error) { return json.Marshal(t.Export()) }

func attrMap(attrs []kv) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.K] = a.V
	}
	return m
}

// --- Context plumbing ----------------------------------------------------

type traceKey struct{}

// ContextWithTrace attaches tr to ctx (no-op on nil trace).
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the trace attached to ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}
