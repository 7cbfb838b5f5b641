package service

import (
	"context"
	"sync"
)

// flightGroup deduplicates concurrent work by key: while one rewrite of a
// given content address is in flight, later identical requests wait for its
// result instead of queueing duplicate work. A minimal stdlib-only take on
// golang.org/x/sync/singleflight (the container bakes no external deps).
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  *RewriteResult
	err  error
}

// do runs fn once per key among concurrent callers, on a goroutine started
// by spawn (Server.spawn), which hands done any panic fn raised. Every
// caller, the first one included, waits for the result but abandons the
// wait when its own context ends; fn runs to completion all the same, so
// its result can still be cached and reaches the callers still waiting.
// The third return value reports whether this caller shared (or tried to
// share) another caller's execution.
func (g *flightGroup) do(ctx context.Context, key string,
	spawn func(site string, fn func() error, done func(error)),
	fn func() (*RewriteResult, error)) (*RewriteResult, error, bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	c, shared := g.calls[key]
	if !shared {
		c = &flightCall{done: make(chan struct{})}
		g.calls[key] = c
	}
	g.mu.Unlock()
	if !shared {
		spawn("flight", func() error {
			c.val, c.err = fn()
			return nil
		}, func(err error) {
			if err != nil {
				c.err = err
			}
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
		})
	}
	select {
	case <-c.done:
		return c.val, c.err, shared
	case <-ctx.Done():
		return nil, ctx.Err(), shared
	}
}
