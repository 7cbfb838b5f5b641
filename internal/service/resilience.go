package service

import (
	"errors"
	"fmt"
)

// Failure-path errors. The HTTP layer maps ErrDeadline to 504 and
// ErrBudget to 422; ErrWorkerPanic never reaches clients on /rewrite — the
// request is degraded to the original image instead.
var (
	// ErrWorkerPanic wraps a panic recovered on a pool worker. The panic is
	// isolated to its request; the worker and the pool keep running.
	ErrWorkerPanic = errors.New("service: worker panicked")
	// ErrDeadline marks a request that exceeded its per-request deadline.
	ErrDeadline = errors.New("service: request deadline exceeded")
	// ErrBudget marks a /run whose guest exhausted the instruction budget
	// (the watchdog against unbounded emulations).
	ErrBudget = errors.New("service: instruction budget exhausted")
	// ErrGoroutinePanic wraps a panic recovered on one of the server's own
	// goroutines (see spawn).
	ErrGoroutinePanic = errors.New("service: goroutine panicked")
)

// spawn is the only way this package starts a goroutine. It runs fn, then
// done with fn's error. A panic in fn is recovered into an
// ErrGoroutinePanic error for done, counted in
// chimera_goroutine_panics_total{site} and kept as /stats' last panic, so
// it fails one campaign, batch item or flight instead of the server.
func (s *Server) spawn(site string, fn func() error, done func(error)) {
	go func() {
		var err error
		defer func() {
			if r := recover(); r != nil {
				s.tel.goroutinePanics.With(site).Inc()
				s.lastPanic.Store(fmt.Sprint(r))
				err = fmt.Errorf("%w: %s: %v", ErrGoroutinePanic, site, r)
			}
			done(err)
		}()
		err = fn()
	}()
}

// FaultStats is the /stats failure-accounting block: every fault the
// serving layer absorbed, and what it did about it. All-zero on a healthy,
// chaos-free server.
type FaultStats struct {
	// Panics is rewrites that panicked on a worker and were isolated.
	Panics uint64 `json:"panics"`
	// Rejects is rewrites the rewriter itself refused (typed
	// ErrRewriteReject: recovered panics, image-dependent analysis
	// failures). Deterministic per input: each such request degrades.
	Rejects uint64 `json:"rejects"`
	// Degradations is requests answered with the original image via the
	// graceful-degradation path (the paper's scalar-core fallback).
	Degradations uint64 `json:"degradations"`
	// DeadlineExceeded is requests that hit their per-request deadline.
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	// BudgetStops is /run executions ended by the instruction budget.
	BudgetStops uint64 `json:"budget_stops"`
	// CacheCorruptions is cache entries that failed SHA-256 verification
	// on a hit and were evicted.
	CacheCorruptions uint64 `json:"cache_corruptions"`
	// LastPanic is the most recent recovered panic value (diagnostics).
	LastPanic string `json:"last_panic,omitempty"`
}

// Health states surfaced by /healthz and /stats.
const (
	HealthOK        = "ok"        // accepting work
	HealthUnhealthy = "unhealthy" // draining/shutting down; not accepting work
)
