package service

import (
	"context"
	"errors"
	"net/http"
	"sync"
)

// maxBatchItems bounds one POST /rewrite/batch request. The batch endpoint
// exists to amortize HTTP round trips for bulk clients (a fleet manager
// rewriting a package set), not to replace queue backpressure — items still
// flow through the same pool, singleflight, and breaker as single requests.
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
// parallel under the pool's backpressure. One failed item never fails the
// batch; its slot carries the error and per-item status.
func (s *Server) RewriteBatch(ctx context.Context, reqs []*RewriteRequest) []BatchItemResult {
	out := make([]BatchItemResult, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req *RewriteRequest) {
			defer wg.Done()
			res, err := s.Rewrite(ctx, req)
			if err != nil {
				out[i] = BatchItemResult{Status: statusFor(err), Error: err.Error()}
				return
			}
			out[i] = BatchItemResult{Status: http.StatusOK, Result: res}
		}(i, req)
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
	var body batchHTTPRequest
	if err := decodeBody(w, r, &body); err != nil {
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

	// Decode all images up front so index alignment is stable even when
	// some items are malformed: a bad image yields a per-item 400 slot, not
	// a whole-batch failure.
	reqs := make([]*RewriteRequest, len(body.Items))
	out := make([]BatchItemResult, len(body.Items))
	var live []int
	for i, item := range body.Items {
		img, err := decodeImage("image", item.Image)
		if err != nil {
			out[i] = BatchItemResult{Status: statusFor(err), Error: err.Error()}
			continue
		}
		reqs[i] = &RewriteRequest{
			Method:           item.Method,
			Target:           item.Target,
			EmptyPatch:       item.EmptyPatch,
			DisableExitShift: item.DisableExitShift,
			DisableBatching:  item.DisableBatching,
			DisableUpgrade:   item.DisableUpgrade,
			Resolve:          item.Resolve,
			Image:            img,
		}
		live = append(live, i)
	}
	w, ctx, tr := s.startTrace(w, r.Context(), "rewrite_batch")
	defer tr.Finish()
	liveReqs := make([]*RewriteRequest, len(live))
	for j, i := range live {
		liveReqs[j] = reqs[i]
	}
	for j, res := range s.RewriteBatch(ctx, liveReqs) {
		out[live[j]] = res
	}
	writeJSON(w, http.StatusOK, batchHTTPResponse{Items: out})
}
