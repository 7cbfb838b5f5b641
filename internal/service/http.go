package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/telemetry"
)

// maxBodyBytes bounds request bodies. The wire format already caps section
// sizes; this caps the envelope before any decoding happens.
const maxBodyBytes = 64 << 20

// rewriteHTTPRequest is the POST /rewrite JSON body. Image is the obj wire
// format (WriteTo/ReadImage), base64-encoded as encoding/json encodes
// []byte.
type rewriteHTTPRequest struct {
	Method           string `json:"method"`
	Target           string `json:"target"`
	EmptyPatch       bool   `json:"empty_patch,omitempty"`
	DisableExitShift bool   `json:"disable_exit_shift,omitempty"`
	DisableBatching  bool   `json:"disable_batching,omitempty"`
	DisableUpgrade   bool   `json:"disable_upgrade,omitempty"`
	Resolve          bool   `json:"resolve,omitempty"`
	Image            []byte `json:"image"`
}

// request converts the body to a RewriteRequest that carries the image's
// wire bytes; Rewrite parses them only on a cache miss.
func (b *rewriteHTTPRequest) request() (*RewriteRequest, error) {
	if len(b.Image) == 0 {
		return nil, fmt.Errorf("%w: missing %q", ErrBadRequest, "image")
	}
	return &RewriteRequest{
		Method:           b.Method,
		Target:           b.Target,
		EmptyPatch:       b.EmptyPatch,
		DisableExitShift: b.DisableExitShift,
		DisableBatching:  b.DisableBatching,
		DisableUpgrade:   b.DisableUpgrade,
		Resolve:          b.Resolve,
		Wire:             b.Image,
	}, nil
}

// runHTTPRequest is the POST /run JSON body.
type runHTTPRequest struct {
	ISA   string `json:"isa,omitempty"`
	Image []byte `json:"image"`
	With  []byte `json:"with,omitempty"`
}

// request parses the body's images into a RunRequest.
func (b *runHTTPRequest) request() (*RunRequest, error) {
	img, err := decodeImage("image", b.Image)
	if err != nil {
		return nil, err
	}
	req := &RunRequest{ISA: b.ISA, Image: img}
	if len(b.With) > 0 {
		if req.With, err = decodeImage("with", b.With); err != nil {
			return nil, err
		}
	}
	return req, nil
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API:
//
//	POST /rewrite        rewrite an image (JSON in/out, image in the obj wire format)
//	POST /rewrite/batch  rewrite up to 256 images in one request (per-item status)
//	POST /run            execute an image on a simulated core
//	POST /fuzz           start a coverage-guided fuzzing campaign against an image
//	GET  /fuzz/{id}          campaign status (execs, coverage, triaged crashes)
//	GET  /fuzz/{id}/corpus   the campaign's coverage-novel corpus entries
//	GET  /healthz        liveness probe
//	GET  /stats          counters, cache state, latency histograms (JSON)
//	GET  /metrics        the same counters in Prometheus text exposition
//	GET  /trace/{id}     one request trace (id from the X-Chimera-Trace header)
//	GET  /profile        guest profiles aggregated per image (when enabled)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/rewrite", s.handleRewrite)
	mux.HandleFunc("/rewrite/batch", s.handleRewriteBatch)
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/fuzz", s.handleFuzz)
	mux.HandleFunc("/fuzz/", s.handleFuzzGet)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.Handle("/metrics", s.tel.reg)
	mux.HandleFunc("/trace/", s.handleTrace)
	mux.HandleFunc("/profile", s.handleProfile)
	return mux
}

// HTTPServer wraps Handler in an http.Server with hardened timeouts: a
// client that dribbles its headers (slow loris), dribbles its body, or
// never reads the response cannot pin a connection goroutine forever.
// WriteTimeout is generous because /run legitimately computes for a while
// before the first response byte; the per-request deadline inside the
// Server is the tighter bound.
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      4 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, statusFor(err), errorResponse{Error: err.Error()})
}

// decodeImage parses wire-format bytes into an image, mapping failures to
// a clean 400 (the round-trip tests assert ReadImage never panics on
// malformed input, so hostile bodies die here).
func decodeImage(field string, raw []byte) (*obj.Image, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("%w: missing %q", ErrBadRequest, field)
	}
	img, err := obj.ReadImage(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadRequest, field, err)
	}
	return img, nil
}

func (s *Server) handleRewrite(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	w, ctx, tr := s.startTrace(w, r.Context(), "rewrite")
	defer tr.Finish()
	var body rewriteHTTPRequest
	wb, err := s.decodeBody(w, r, tr, &body)
	defer wb.release()
	if err != nil {
		writeError(w, err)
		return
	}
	req, err := body.request()
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := s.Rewrite(ctx, req)
	if err != nil {
		writeError(w, err)
		return
	}
	sp := tr.Span("encode")
	start := time.Now()
	writeJSON(w, http.StatusOK, res)
	observeStage(s.tel.stageEncode, time.Since(start))
	sp.End()
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	w, ctx, tr := s.startTrace(w, r.Context(), "run")
	defer tr.Finish()
	var body runHTTPRequest
	wb, err := s.decodeBody(w, r, tr, &body)
	var req *RunRequest
	if err == nil {
		req, err = body.request()
	}
	wb.release() // the request holds parsed copies of the images
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := s.Run(ctx, req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleHealthz reports ok (200) or unhealthy (503, draining). A server
// that degrades some rewrites to the original image is still ok: it
// answers every request, so load balancers must keep routing to it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if h == HealthUnhealthy {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"status": h})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// startTrace begins a request trace (when tracing is enabled), threads it
// through the context so the pipeline can record spans, and announces its
// id in the X-Chimera-Trace response header so clients can fetch the full
// timeline from /trace/{id} after the response. The returned writer
// finishes the trace before the response body goes out, so the trace is
// there as soon as the client has its answer.
func (s *Server) startTrace(w http.ResponseWriter, ctx context.Context, name string) (http.ResponseWriter, context.Context, *telemetry.Trace) {
	tr := s.tracer.Start(name)
	if tr != nil {
		w.Header().Set("X-Chimera-Trace", tr.ID)
		w = tracedWriter{w, tr}
	}
	return w, telemetry.ContextWithTrace(ctx, tr), tr
}

// tracedWriter finishes its trace on the first body write.
type tracedWriter struct {
	http.ResponseWriter
	tr *telemetry.Trace
}

func (w tracedWriter) Write(b []byte) (int, error) {
	w.tr.Finish()
	return w.ResponseWriter.Write(b)
}

// handleTrace serves one finished trace as JSON: GET /trace/{id}.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/trace/")
	if id == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "trace id required: GET /trace/{id}"})
		return
	}
	tr, ok := s.tracer.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "trace not found (evicted or never existed): " + id})
		return
	}
	writeJSON(w, http.StatusOK, tr.Export())
}

// handleProfile serves the per-image guest profiles: GET /profile[?top=N].
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.GuestProfile {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "guest profiling disabled (enable with Config.GuestProfile)"})
		return
	}
	top := 10
	if v := r.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "top must be a positive integer"})
			return
		}
		top = n
	}
	writeJSON(w, http.StatusOK, s.Profiles(top))
}
