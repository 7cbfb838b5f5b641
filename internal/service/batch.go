package service

import (
	"context"
	"errors"
	"net/http"
	"sync"
)

// maxBatchItems bounds one POST /rewrite/batch request. The batch endpoint
// exists to amortize HTTP round trips for bulk clients (a fleet manager
// rewriting a package set), not to replace backpressure — items still
// flow through the same singleflight and execution slots as single requests.
const maxBatchItems = 256

// batchHTTPRequest is the POST /rewrite/batch JSON body.
type batchHTTPRequest struct {
	Items []rewriteHTTPRequest `json:"items"`
}

// BatchItemResult is one item's outcome: exactly one of Result/Error is
// set, and Status is the HTTP status the item would have gotten as a
// standalone POST /rewrite.
type BatchItemResult struct {
	Status int            `json:"status"`
	Result *RewriteResult `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// batchHTTPResponse is the POST /rewrite/batch JSON response; Items is
// index-aligned with the request.
type batchHTTPResponse struct {
	Items []BatchItemResult `json:"items"`
}

// RewriteBatch serves a batch of rewrite requests concurrently. Each item
// is an independent Rewrite call — identical items coalesce in the
// singleflight layer (one rewrite, N shared results), distinct ones run in
// parallel under the execution slots' backpressure. One failed item never fails the
// batch; its slot carries the error and per-item status.
func (s *Server) RewriteBatch(ctx context.Context, reqs []*RewriteRequest) []BatchItemResult {
	out := make([]BatchItemResult, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		s.spawn("batch", func() error {
			res, err := s.Rewrite(ctx, req)
			if err == nil {
				out[i] = BatchItemResult{Status: http.StatusOK, Result: res}
			}
			return err
		}, func(err error) {
			if err != nil {
				out[i] = BatchItemResult{Status: statusFor(err), Error: err.Error()}
			}
			wg.Done()
		})
	}
	wg.Wait()
	return out
}

// statusFor maps a service error to its HTTP status (shared by writeError
// and the per-item batch statuses).
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrBudget):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleRewriteBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	w, ctx, tr := s.startTrace(w, r.Context(), "rewrite_batch")
	defer tr.Finish()
	var body batchHTTPRequest
	wb, err := s.decodeBody(w, r, tr, &body)
	wb.release() // the fallback decoder copies every field out of the body
	if err != nil {
		writeError(w, err)
		return
	}
	if len(body.Items) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "batch: no items"})
		return
	}
	if len(body.Items) > maxBatchItems {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "batch: too many items"})
		return
	}
	s.tel.batchRequests.Inc()
	s.tel.batchItems.Add(uint64(len(body.Items)))

	// Build all requests up front so index alignment is stable even when
	// some items are malformed: a missing image yields a per-item 400 slot,
	// not a whole-batch failure (an unparseable one gets its 400 from
	// Rewrite).
	out := make([]BatchItemResult, len(body.Items))
	var live []int
	var liveReqs []*RewriteRequest
	for i := range body.Items {
		req, err := body.Items[i].request()
		if err != nil {
			out[i] = BatchItemResult{Status: statusFor(err), Error: err.Error()}
			continue
		}
		live = append(live, i)
		liveReqs = append(liveReqs, req)
	}
	for j, res := range s.RewriteBatch(ctx, liveReqs) {
		out[live[j]] = res
	}
	writeJSON(w, http.StatusOK, batchHTTPResponse{Items: out})
}
