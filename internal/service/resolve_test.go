package service

import (
	"context"
	"testing"

	"github.com/eurosys26p57/chimera/internal/workload"
)

// TestRewriteResolve exercises the resolver through the service: a
// jump-table workload whose arms hide from recursive descent is rewritten
// with Resolve on and off. The two requests must occupy distinct cache
// entries, the resolver-on stats must show recovery work, and the
// chimera_resolve_* families must land in /stats.
func TestRewriteResolve(t *testing.T) {
	img, err := workload.BuildDispatch(workload.DispatchParams{
		Name: "svc-dispatch", Arms: 4, VecArms: 2, Rounds: 8,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2})
	defer srv.Shutdown(context.Background())

	off, err := srv.Rewrite(context.Background(), &RewriteRequest{
		Method: "chbp", Target: "rv64gc", Wire: wire(t, img),
	})
	if err != nil {
		t.Fatal(err)
	}
	on, err := srv.Rewrite(context.Background(), &RewriteRequest{
		Method: "chbp", Target: "rv64gc", Resolve: true, Wire: wire(t, img),
	})
	if err != nil {
		t.Fatal(err)
	}
	if on.Key == off.Key {
		t.Fatal("resolver-on and resolver-off requests share a cache key")
	}
	if on.CacheHit {
		t.Fatal("resolver-on request hit the resolver-off cache entry")
	}
	if off.Stats.Resolve != nil || off.Stats.ResolvedSites != 0 {
		t.Errorf("resolver-off stats carry resolver work: %+v", off.Stats)
	}
	st := on.Stats
	if st.Resolve == nil {
		t.Fatal("resolver-on stats missing the per-tier summary")
	}
	if st.Resolve.SitesHigh == 0 || st.ResolvedSites == 0 ||
		st.RecoveredInsts == 0 || st.AvoidedRewrites == 0 {
		t.Errorf("resolver-on stats show no recovery: %+v", st)
	}

	// A repeat is a pure cache hit: the resolve metrics must not recount.
	stats := srv.Stats()
	if stats.Resolve.Rewrites != 1 {
		t.Errorf("resolve rewrites = %d, want 1", stats.Resolve.Rewrites)
	}
	if _, err := srv.Rewrite(context.Background(), &RewriteRequest{
		Method: "chbp", Target: "rv64gc", Resolve: true, Wire: wire(t, img),
	}); err != nil {
		t.Fatal(err)
	}
	stats = srv.Stats()
	if stats.Resolve.Rewrites != 1 {
		t.Errorf("cache hit recounted resolve rewrites: %d", stats.Resolve.Rewrites)
	}
	if stats.Resolve.SitesHigh == 0 || stats.Resolve.TargetsHigh == 0 ||
		stats.Resolve.RecoveredInsts == 0 || stats.Resolve.AvoidedRewrites == 0 {
		t.Errorf("/stats resolve block empty: %+v", stats.Resolve)
	}
}

// TestRewriteResolveMethods runs the resolver-on path through Safer and
// ARMore too: both must succeed on the hidden-arm workload and report the
// instructions only the resolver's roots reached.
func TestRewriteResolveMethods(t *testing.T) {
	img, err := workload.BuildDispatch(workload.DispatchParams{
		Name: "svc-dispatch-m", Arms: 3, VecArms: 1, Rounds: 4,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2})
	defer srv.Shutdown(context.Background())
	for _, method := range []string{"safer", "armore"} {
		res, err := srv.Rewrite(context.Background(), &RewriteRequest{
			Method: method, Target: "rv64gc", Resolve: true, Wire: wire(t, img),
		})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if res.Stats.RecoveredInsts == 0 {
			t.Errorf("%s: no recovered instructions: %+v", method, res.Stats)
		}
		if res.Stats.Resolve == nil || res.Stats.Resolve.TargetsHigh == 0 {
			t.Errorf("%s: missing resolve summary: %+v", method, res.Stats)
		}
	}
}
