package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/telemetry"
)

// Failure-path errors. The HTTP layer maps ErrDeadline to 504 and
// ErrBudget to 422; ErrWorkerPanic and ErrQuarantined never reach clients
// on /rewrite — they are degraded to the original image instead.
var (
	// ErrWorkerPanic wraps a panic recovered on a pool worker. The panic is
	// isolated to its request; the worker and the pool keep running.
	ErrWorkerPanic = errors.New("service: worker panicked")
	// ErrDeadline marks a request that exceeded its per-request deadline.
	ErrDeadline = errors.New("service: request deadline exceeded")
	// ErrBudget marks a /run whose guest exhausted the instruction budget
	// (the watchdog against unbounded emulations).
	ErrBudget = errors.New("service: instruction budget exhausted")
	// ErrQuarantined marks a rewriter config whose circuit breaker is open.
	ErrQuarantined = errors.New("service: rewriter config quarantined")
	// ErrGoroutinePanic wraps a panic recovered on one of the server's own
	// goroutines (see spawn).
	ErrGoroutinePanic = errors.New("service: goroutine panicked")
)

// spawn is the only way this package starts a goroutine. It runs fn, then
// done with fn's error. A panic in fn is recovered into an
// ErrGoroutinePanic error for done, counted in
// chimera_goroutine_panics_total{site} and kept as /stats' last panic, so
// it fails one campaign, batch item or offer instead of the server.
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
	// Retries is re-submissions after a transient attempt failure.
	Retries uint64 `json:"retries"`
	// AttemptFailures is individual failed rewrite attempts (pre-retry).
	AttemptFailures uint64 `json:"attempt_failures"`
	// QuarantineTrips is circuit-breaker openings.
	QuarantineTrips uint64 `json:"quarantine_trips"`
	// QuarantinedConfigs is breakers currently open.
	QuarantinedConfigs int `json:"quarantined_configs"`
	// Rejects is rewrites the rewriter itself refused (typed
	// ErrRewriteReject: recovered panics, image-dependent analysis
	// failures). Deterministic per input — never retried and never counted
	// against the config's circuit breaker, unlike transient failures.
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

// Health states for the ok → degraded → unhealthy machine surfaced by
// /healthz and /stats.
const (
	HealthOK        = "ok"        // no quarantined configs, accepting work
	HealthDegraded  = "degraded"  // serving, but ≥1 rewriter config quarantined
	HealthUnhealthy = "unhealthy" // draining/shutting down; not accepting work
)

// breaker is the per-rewriter-config circuit breaker: `after` consecutive
// request failures (each already retried) open it for `cooldown`, during
// which the config is quarantined and requests degrade immediately instead
// of burning pool workers on a known-bad config. The first request after
// the cooldown closes it optimistically (half-open probe).
type breaker struct {
	consecutive int
	openUntil   time.Time
}

// breakers is the config-keyed breaker table. Trips count directly into
// the telemetry registry.
type breakers struct {
	mu       sync.Mutex
	m        map[string]*breaker
	after    int
	cooldown time.Duration
	trips    *telemetry.Counter
}

func newBreakers(after int, cooldown time.Duration, trips *telemetry.Counter) *breakers {
	return &breakers{m: make(map[string]*breaker), after: after, cooldown: cooldown, trips: trips}
}

// quarantined reports whether key's breaker is open at now.
func (b *breakers) quarantined(key string, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.m[key]
	if br == nil {
		return false
	}
	if now.Before(br.openUntil) {
		return true
	}
	if !br.openUntil.IsZero() {
		// Cooldown over: half-open. Let the next request probe the config;
		// its success() or failure() decides the breaker's fate.
		br.openUntil = time.Time{}
		br.consecutive = b.after - 1 // one more failure re-opens immediately
	}
	return false
}

// success closes key's breaker and resets its failure streak.
func (b *breakers) success(key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if br := b.m[key]; br != nil {
		br.consecutive = 0
		br.openUntil = time.Time{}
	}
}

// failure records one failed request for key, opening the breaker when the
// streak reaches the threshold. Returns true when this call tripped it.
func (b *breakers) failure(key string, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.m[key]
	if br == nil {
		br = &breaker{}
		b.m[key] = br
	}
	br.consecutive++
	if br.consecutive >= b.after && now.After(br.openUntil) {
		br.openUntil = now.Add(b.cooldown)
		b.trips.Inc()
		return true
	}
	return false
}

// active counts breakers currently open; tripCount is lifetime openings.
func (b *breakers) active(now time.Time) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, br := range b.m {
		if now.Before(br.openUntil) {
			n++
		}
	}
	return n
}

func (b *breakers) tripCount() uint64 { return b.trips.Value() }

// backoff returns the exponential-with-jitter delay before retry attempt
// n (1-based): base·2^(n-1), plus up to 50% jitter so synchronized
// failures do not retry in lockstep.
func backoff(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = time.Millisecond
	}
	d := base << (attempt - 1)
	if d > time.Second {
		d = time.Second
	}
	return d + time.Duration(rand.Int64N(int64(d)/2+1))
}

// retryable reports whether an attempt error is worth retrying: transient
// infrastructure failures (panics, injected transients) are; caller
// mistakes, shutdown, context expiry, and typed rewriter rejects (a
// deterministic function of the input image — retrying cannot help) are
// not.
func retryable(err error) bool {
	return err != nil &&
		!errors.Is(err, ErrBadRequest) &&
		!errors.Is(err, ErrShuttingDown) &&
		!errors.Is(err, chbp.ErrRewriteReject) &&
		!errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, context.Canceled)
}
