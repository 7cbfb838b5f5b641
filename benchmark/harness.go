package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/eurosys26p57/chimera/internal/service"
)

// clients is the closed-loop load: each client waits for its reply before
// sending the next request. Two match the two workers of the default
// server Config on a 2-core host.
const clients = 2

// errPoolExhausted ends a client's loop without counting a failure: the
// workload has no unused request left (rewrite-cold never repeats a key).
var errPoolExhausted = errors.New("request pool exhausted")

// env is one server under test on loopback plus the clients that load it.
type env struct {
	srv     *service.Server
	hs      *http.Server
	base    string
	served  chan error
	clients []*client
}

// startEnv serves cfg on a loopback port and connects the clients. The
// transport caps connections at the client count, so the load is exactly
// `clients` connections. wrap, when non-nil, wraps the handler.
func startEnv(cfg service.Config, wrap func(http.Handler) http.Handler) (*env, error) {
	srv, err := service.NewServer(cfg)
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, fmt.Errorf("listening: %w", err)
	}
	e := &env{
		srv:    srv,
		hs:     srv.HTTPServer(ln.Addr().String()),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	if wrap != nil {
		e.hs.Handler = wrap(e.hs.Handler)
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	tr := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	hc := &http.Client{Transport: tr}
	for i := 0; i < clients; i++ {
		e.clients = append(e.clients, &client{hc: hc, base: e.base, parent: -1})
	}
	return e, nil
}

// close stops the HTTP server and drains the service; it returns once the
// serve goroutine has exited.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	e.srv.Shutdown(ctx)
	<-e.served
	e.clients[0].hc.CloseIdleConnections()
}

// client issues one request at a time. When rec is set, every call records
// its round trip and response decode as spans of request req under parent.
type client struct {
	hc     *http.Client
	base   string
	rec    *recorder
	req    int
	parent int
}

// call sends body (nil for GET) to path, checks the status is 2xx and
// decodes the JSON answer into out.
func (c *client) call(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	rt := c.rec.begin(c.req, c.parent, "client.roundtrip")
	resp, err := c.hc.Do(req)
	if err != nil {
		c.rec.end(rt)
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.rec.end(rt)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if id := resp.Header.Get("X-Chimera-Trace"); id != "" {
		c.rec.noteServed(c.req, rt, id)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	dec := c.rec.begin(c.req, c.parent, "client.decode")
	defer c.rec.end(dec)
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
	}
	return nil
}

// drive runs the closed loop for d: every client takes the next request
// index from next, runs op and records the outcome, until the deadline
// passes, the index reaches limit or the pool runs out. Requests started
// before the deadline run to completion. It returns the outcomes and the
// time from start to the last completion, the denominator of throughput.
func drive(ctx context.Context, e *env, w load, d time.Duration, limit int, next *atomic.Int64, rec *recorder) ([]outcome, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var (
		mu   sync.Mutex
		outs []outcome
		last time.Time
		wg   sync.WaitGroup
	)
	for _, c := range e.clients {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				c.rec, c.req = rec, i
				c.parent = rec.begin(i, -1, "client.op")
				t0 := time.Now()
				err := w.op(ctx, c, i)
				done := time.Now()
				rec.end(c.parent)
				c.rec, c.parent = nil, -1
				if errors.Is(err, errPoolExhausted) {
					return
				}
				mu.Lock()
				outs = append(outs, outcome{latency: done.Sub(t0), err: err})
				if done.After(last) {
					last = done
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if last.IsZero() {
		last = time.Now()
	}
	return outs, last.Sub(start)
}

// parallel runs fn(0..n-1) on `clients` goroutines and returns the first
// error. Set-up uses it so the server sees the same concurrency as under
// load.
func parallel(n int, fn func(j int) error) error {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < n; j = int(next.Add(1) - 1) {
				if err := fn(j); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
