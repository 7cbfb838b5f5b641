package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/eurosys26p57/chimera/internal/telemetry"
)

// spanRec is one recorded span. Times are microseconds since the
// recorder's epoch; Parent is -1 for a top-level span. Spans of one
// request share Req.
type spanRec struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Req     int     `json:"request"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s spanRec) durUS() float64 { return s.EndUS - s.StartUS }

// servedRef links a client round-trip span to the server trace id its
// response announced.
type servedRef struct {
	req, span int
	traceID   string
}

// recorder keeps spans in memory for the traced run; they are written out
// only when the run ends. A nil recorder records nothing, so untraced runs
// pay one branch per call site.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []spanRec
	served []servedRef
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() float64 { return float64(time.Since(r.epoch).Nanoseconds()) / 1e3 }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(req, parent int, name string) int {
	if r == nil {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, spanRec{ID: id, Parent: parent, Req: req, Name: name, StartUS: t, EndUS: t})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id].EndUS = t
	r.mu.Unlock()
}

// timed runs fn inside a span.
func (r *recorder) timed(req, parent int, name string, fn func()) {
	id := r.begin(req, parent, name)
	fn()
	r.end(id)
}

func (r *recorder) noteServed(req, span int, traceID string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.served = append(r.served, servedRef{req: req, span: span, traceID: traceID})
	r.mu.Unlock()
}

// importServerTrace adds a server trace's spans under the client round
// trip that carried it: the trace itself becomes one "server.<name>" span
// and its stage spans nest inside it by interval containment (the server
// exports flat spans; queue_wait, for one, lies inside rewrite_attempt).
func (r *recorder) importServerTrace(ref servedRef, tr telemetry.TraceJSON) {
	base := float64(tr.Start.Sub(r.epoch).Nanoseconds()) / 1e3
	r.mu.Lock()
	defer r.mu.Unlock()
	root := len(r.spans)
	r.spans = append(r.spans, spanRec{
		ID: root, Parent: ref.span, Req: ref.req, Name: "server." + tr.Name,
		StartUS: base, EndUS: base + float64(tr.DurationUS),
	})
	ss := append([]telemetry.SpanJSON(nil), tr.Spans...)
	// Outer spans first: earlier start, then longer duration.
	sort.SliceStable(ss, func(i, j int) bool {
		if ss[i].StartUS != ss[j].StartUS {
			return ss[i].StartUS < ss[j].StartUS
		}
		return ss[i].DurationUS > ss[j].DurationUS
	})
	var open []int // stack of enclosing span ids
	for _, s := range ss {
		rec := spanRec{
			Req: ref.req, Name: "service." + s.Name,
			StartUS: base + float64(s.StartUS), EndUS: base + float64(s.StartUS+s.DurationUS),
		}
		for len(open) > 0 && r.spans[open[len(open)-1]].EndUS < rec.EndUS {
			open = open[:len(open)-1]
		}
		rec.Parent = root
		if len(open) > 0 {
			rec.Parent = open[len(open)-1]
		}
		rec.ID = len(r.spans)
		r.spans = append(r.spans, rec)
		open = append(open, rec.ID)
	}
}

// selfTimes returns each span's duration minus the part its children
// cover (children of one parent never overlap: they are sequential calls).
func selfTimes(spans []spanRec) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.durUS()
		if s.Parent >= 0 {
			self[s.Parent] -= s.durUS()
		}
	}
	return self
}

// fetchServerTraces pulls the server traces of the given served requests
// through GET /trace/{id} and nests them under their round trips.
func fetchServerTraces(ctx context.Context, c *client, rec *recorder, refs []servedRef) error {
	for _, ref := range refs {
		var tr telemetry.TraceJSON
		if err := c.call(ctx, "GET", "/trace/"+ref.traceID, nil, &tr); err != nil {
			return fmt.Errorf("fetching server trace: %w", err)
		}
		rec.importServerTrace(ref, tr)
	}
	return nil
}

// spanStats aggregates self and total time per span name.
type spanStats struct {
	n             int
	selfUS, durUS float64
}

type spanTable map[string]*spanStats

func aggregate(spans []spanRec) spanTable {
	self := selfTimes(spans)
	out := make(spanTable)
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.n++
		st.selfUS += self[i]
		st.durUS += s.durUS()
	}
	return out
}

// selfMS is the mean self time of the named span in milliseconds (0 when it
// never occurred).
func (t spanTable) selfMS(name string) float64 {
	if st := t[name]; st != nil && st.n > 0 {
		return st.selfUS / float64(st.n) / 1e3
	}
	return 0
}

// durMS is the mean duration of the named span in milliseconds.
func (t spanTable) durMS(name string) float64 {
	if st := t[name]; st != nil && st.n > 0 {
		return st.durUS / float64(st.n) / 1e3
	}
	return 0
}

// writeSpans dumps every recorded span as one JSON document.
func (r *recorder) writeSpans(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(map[string]any{"epoch": r.epoch, "spans": r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
