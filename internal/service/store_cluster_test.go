package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/eurosys26p57/chimera/internal/chaos"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/telemetry"
)

// TestWarmRestartDiskHit is the persistence acceptance scenario: a server
// with a disk store rewrites an image, shuts down, and a NEW server over the
// same directory answers the identical request from the disk tier — no
// rewrite, byte-identical result — with the tier visible in the response,
// the request trace, and the metrics. A follow-up request then hits the
// memory tier, proving the disk hit was promoted.
func TestWarmRestartDiskHit(t *testing.T) {
	img := testImages(t, 1)[0]
	dir := t.TempDir()
	cfg := Config{Workers: 2, StoreDir: dir}
	req := func() *RewriteRequest {
		return &RewriteRequest{Method: "chbp", Target: "rv64gc", Wire: wire(t, img)}
	}

	srv1 := New(cfg)
	cold, err := srv1.Rewrite(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit || cold.Degraded {
		t.Fatalf("first rewrite: hit=%t degraded=%t, want a cold clean rewrite", cold.CacheHit, cold.Degraded)
	}
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restarted process: fresh memory, same disk.
	srv2 := New(cfg)
	defer srv2.Shutdown(context.Background())
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()

	body, _ := json.Marshal(rewriteHTTPRequest{Method: "chbp", Target: "rv64gc", Image: wire(t, img)})
	post := func() (*RewriteResult, string) {
		resp, err := http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/rewrite status %d", resp.StatusCode)
		}
		var res RewriteResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return &res, resp.Header.Get("X-Chimera-Trace")
	}

	warm, traceID := post()
	if !warm.CacheHit || warm.Tier != "disk" {
		t.Fatalf("warm-restart request: hit=%t tier=%q, want a disk-tier hit", warm.CacheHit, warm.Tier)
	}
	if !bytes.Equal(warm.ImageBytes, cold.ImageBytes) {
		t.Fatal("disk-tier hit returned different bytes than the cold rewrite")
	}
	if warm.Stats != cold.Stats {
		t.Fatalf("disk-tier hit lost the rewrite stats: %+v != %+v", warm.Stats, cold.Stats)
	}

	// The trace must show the lookup answered from disk and no rewrite work.
	resp, err := http.Get(ts.URL + "/trace/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace/%s status %d", traceID, resp.StatusCode)
	}
	var tr telemetry.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	var sawLookup bool
	for _, sp := range tr.Spans {
		switch sp.Name {
		case "cache_lookup":
			sawLookup = true
			if sp.Attrs["hit"] != "true" || sp.Attrs["tier"] != "disk" {
				t.Errorf("lookup span attrs %v, want hit=true tier=disk", sp.Attrs)
			}
		case "rewrite_attempt", "singleflight":
			t.Errorf("warm-restart trace contains a %s span; the disk hit should short-circuit", sp.Name)
		}
	}
	if !sawLookup {
		t.Errorf("trace has no cache_lookup span: %v", tr.Spans)
	}

	m := scrape(t, srv2.Handler())
	if got := m[`chimera_store_tier_hits_total{tier="disk"}`]; got != 1 {
		t.Errorf("disk tier hits = %v, want 1", got)
	}
	if got := m[`chimera_stage_seconds_count{stage="rewrite"}`]; got != 0 {
		t.Errorf("restarted server performed %v rewrites, want 0", got)
	}

	// The disk hit was promoted: the next identical request is a memory hit.
	again, _ := post()
	if !again.CacheHit || again.Tier != "memory" {
		t.Fatalf("post-promotion request: hit=%t tier=%q, want a memory-tier hit", again.CacheHit, again.Tier)
	}
	m = scrape(t, srv2.Handler())
	if got := m[`chimera_store_tier_hits_total{tier="memory"}`]; got != 1 {
		t.Errorf("memory tier hits = %v, want 1", got)
	}
}

// startCluster boots n in-process nodes that know each other's real
// addresses: listeners are created first (so every node's peer list can name
// every other node), then each Server is built with ClusterSelf/ClusterPeers
// and served on its pre-bound listener.
func startCluster(t testing.TB, n int, base func(i int) Config) ([]*Server, []string) {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	servers := make([]*Server, n)
	for i := range servers {
		cfg := base(i)
		cfg.ClusterSelf = urls[i]
		cfg.ClusterPeers = urls // self included; cluster.New filters it
		servers[i] = New(cfg)
		ts := httptest.NewUnstartedServer(servers[i].Handler())
		ts.Listener.Close()
		ts.Listener = listeners[i]
		ts.Start()
		t.Cleanup(ts.Close)
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Shutdown(context.Background())
		}
	})
	return servers, urls
}

// TestClusterPeerFill is the sharding acceptance scenario: in a 3-node
// cluster, one node rewrites (cold), offers the entry to the key's shard
// owner, and a request for the same key on a THIRD node is then served by
// the owner over the peer protocol — a peer hit, byte-identical, with
// exactly one rewrite executed cluster-wide.
func TestClusterPeerFill(t *testing.T) {
	img := testImages(t, 1)[0]
	servers, urls := startCluster(t, 3, func(int) Config { return Config{Workers: 2} })

	req := &RewriteRequest{Method: "chbp", Target: "rv64gc", Wire: wire(t, img)}
	cfg, err := validateRewrite(req)
	if err != nil {
		t.Fatal(err)
	}
	key := wireKey(req.Wire, cfg)
	ownerAddr, _ := servers[0].clu.Owner(key)
	owner := -1
	for i, u := range urls {
		if u == ownerAddr {
			owner = i
		}
	}
	if owner < 0 {
		t.Fatalf("owner %q is not a cluster member %v", ownerAddr, urls)
	}
	var others []int
	for i := range servers {
		if i != owner {
			others = append(others, i)
		}
	}

	body, _ := json.Marshal(rewriteHTTPRequest{Method: "chbp", Target: "rv64gc", Image: wire(t, img)})
	post := func(node int) *RewriteResult {
		resp, err := http.Post(urls[node]+"/rewrite", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d /rewrite status %d", node, resp.StatusCode)
		}
		var res RewriteResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		if res.Degraded {
			t.Fatalf("node %d degraded: %s", node, res.DegradedReason)
		}
		return &res
	}

	// Cold rewrite on a non-owner; the completed entry is offered to the
	// owner asynchronously.
	cold := post(others[0])
	if cold.CacheHit || cold.PeerHit {
		t.Fatalf("first request: hit=%t peer=%t, want a cold rewrite", cold.CacheHit, cold.PeerHit)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, ok := servers[owner].st.Get(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("offer never reached the shard owner's store")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The other non-owner misses locally but finds the entry at the owner.
	peer := post(others[1])
	if !peer.PeerHit {
		t.Fatalf("third-node request: peer_hit=%t tier=%q hit=%t, want a peer hit", peer.PeerHit, peer.Tier, peer.CacheHit)
	}
	if !bytes.Equal(peer.ImageBytes, cold.ImageBytes) {
		t.Fatal("peer hit returned different bytes than the original rewrite")
	}

	// The owner itself serves from its local store (the offer landed there).
	own := post(owner)
	if !own.CacheHit {
		t.Fatalf("owner request: hit=%t, want a local hit from the offered entry", own.CacheHit)
	}

	// One rewrite, cluster-wide.
	var rewrites float64
	for i, s := range servers {
		n := scrape(t, s.Handler())[`chimera_stage_seconds_count{stage="rewrite"}`]
		rewrites += n
		if n > 1 {
			t.Errorf("node %d executed %v rewrites", i, n)
		}
	}
	if rewrites != 1 {
		t.Fatalf("cluster executed %v rewrites for one key, want exactly 1", rewrites)
	}

	// Every node's chimera_cluster_* samples are its /stats.cluster fields.
	for i, s := range servers {
		st := s.Stats()
		if st.Cluster == nil {
			t.Fatalf("node %d /stats has no cluster block", i)
		}
		checkStorageCounters(t, scrape(t, s.Handler()), st)
	}

	// The peer hit is write-through: the same node answers locally now.
	again := post(others[1])
	if !again.CacheHit || again.PeerHit {
		t.Fatalf("repeat on peer-filled node: hit=%t peer=%t, want a local hit", again.CacheHit, again.PeerHit)
	}
}

// TestChaosSoakCluster points the chaos injector at the new failure domains
// — disk I/O (torn writes, read bit-flips, ENOSPC) and the peer protocol
// (stalls past the timeout, 500s, corrupt bodies) — across a 3-node cluster
// with persistent stores, and asserts the transparency oracle cluster-wide:
// every response is either byte-identical to the chaos-free rewrite or a
// degraded answer carrying the original image. Zero wrong-image responses.
//
// Runs 120 requests by default; CHIMERA_CHAOS_SOAK=1 raises it to 600
// (scripts/check.sh -run 'TestChaosSoak' matches this test too).
func TestChaosSoakCluster(t *testing.T) {
	n := 120
	if os.Getenv("CHIMERA_CHAOS_SOAK") != "" {
		n = 600
	}
	const peerTimeout = 150 * time.Millisecond
	servers, urls := startCluster(t, 3, func(i int) Config {
		return Config{
			Workers:     2,
			StoreDir:    t.TempDir(),
			PeerTimeout: peerTimeout,
			Chaos: chaos.New(20260808+int64(i), chaos.Config{
				Rates: map[chaos.Kind]float64{
					chaos.DiskTornWrite: 0.20,
					chaos.DiskBitFlip:   0.20,
					chaos.DiskENOSPC:    0.10,
					chaos.PeerTimeout:   0.05,
					chaos.PeerError:     0.20,
					chaos.PeerCorrupt:   0.20,
					chaos.CacheCorrupt:  0.25,
					chaos.RewritePanic:  0.10,
				},
			}),
		}
	})

	// Chaos-free references.
	images := testImages(t, 2)
	refSrv := New(Config{Workers: 2})
	defer refSrv.Shutdown(context.Background())
	type rwCase struct {
		body     []byte
		ref      []byte
		original []byte
	}
	var rw []rwCase
	for _, img := range images {
		for _, m := range rewriters.Methods {
			ref, err := refSrv.Rewrite(context.Background(), &RewriteRequest{Method: m, Target: "rv64gc", Wire: wire(t, img)})
			if err != nil {
				t.Fatalf("reference %s: %v", m, err)
			}
			b, _ := json.Marshal(rewriteHTTPRequest{Method: m, Target: "rv64gc", Image: wire(t, img)})
			rw = append(rw, rwCase{body: b, ref: ref.ImageBytes, original: wire(t, img)})
		}
	}

	var (
		mu       sync.Mutex
		failures []string
		degraded int
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	issue := func(i int) {
		c := rw[i%len(rw)]
		resp, err := http.Post(urls[i%len(urls)]+"/rewrite", "application/json", bytes.NewReader(c.body))
		if err != nil {
			fail("request %d: transport: %v", i, err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fail("request %d: status %d (rewrites must always be answered)", i, resp.StatusCode)
			return
		}
		var res RewriteResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			fail("request %d: decode: %v", i, err)
			return
		}
		if res.Degraded {
			mu.Lock()
			degraded++
			mu.Unlock()
			if !bytes.Equal(res.ImageBytes, c.original) {
				fail("request %d: degraded bytes are not the original image", i)
			}
			return
		}
		if !bytes.Equal(res.ImageBytes, c.ref) {
			fail("request %d: WRONG IMAGE (hit=%t tier=%q peer=%t)", i, res.CacheHit, res.Tier, res.PeerHit)
		}
	}

	sem := make(chan struct{}, 6)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			issue(i)
		}(i)
	}
	wg.Wait()

	if len(failures) > 0 {
		max := len(failures)
		if max > 10 {
			max = 10
		}
		for _, f := range failures[:max] {
			t.Error(f)
		}
		t.Fatalf("%d of %d cluster requests violated the oracle", len(failures), n)
	}
	var peerHits, peerErrs, diskCorrupt float64
	for _, s := range servers {
		m := scrape(t, s.Handler())
		peerHits += m["chimera_cluster_peer_hits_total"]
		peerErrs += m["chimera_cluster_peer_errors_total"]
		diskCorrupt += m["chimera_store_disk_corrupt_evictions_total"]
	}
	t.Logf("cluster soak: %d requests, %d degraded, %.0f peer hits, %.0f peer errors, %.0f corrupt disk entries evicted",
		n, degraded, peerHits, peerErrs, diskCorrupt)
}

// BenchmarkRewriteBatch measures POST /rewrite/batch throughput end to end
// (JSON decode, per-item fan-out through the pool/cache, JSON encode). After
// the first iteration every item is a cache hit, so this is the amortized
// bulk-client path the endpoint exists for.
func BenchmarkRewriteBatch(b *testing.B) {
	images := testImages(b, 2)
	srv := New(Config{})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var items []rewriteHTTPRequest
	for _, img := range images {
		for _, m := range rewriters.Methods {
			items = append(items, rewriteHTTPRequest{Method: m, Target: "rv64gc", Image: wire(b, img)})
		}
	}
	body, _ := json.Marshal(batchHTTPRequest{Items: items})

	post := func() {
		resp, err := http.Post(ts.URL+"/rewrite/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("/rewrite/batch status %d", resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
	}
	post() // warm the cache; steady state is what the endpoint amortizes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.ReportMetric(float64(len(items)*b.N)/b.Elapsed().Seconds(), "items/s")
}
