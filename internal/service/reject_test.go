package service

import (
	"context"
	"strings"
	"testing"
)

// TestRewriteRejectDegrades sends the same adversarial image (entry
// overwritten with undecodable bytes, so Safer's regeneration cannot
// relocate it) several times. Each request runs the rewriter, which
// refuses it with the typed ErrRewriteReject; each degrades to the original
// image with the reject as its reason, and /stats counts every one as a
// reject and a degradation, not as a worker panic.
func TestRewriteRejectDegrades(t *testing.T) {
	img := testImages(t, 1)[0]
	if err := img.WriteAt(img.Entry, []byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2})
	defer srv.Shutdown(context.Background())

	const n = 8
	for i := 0; i < n; i++ {
		res, err := srv.Rewrite(context.Background(),
			&RewriteRequest{Method: "safer", Target: "rv64gc", Wire: wire(t, img)})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !res.Degraded {
			t.Fatalf("request %d: rejected rewrite did not degrade", i)
		}
		if !strings.Contains(res.DegradedReason, "rejected") {
			t.Fatalf("request %d: degraded reason %q does not carry the reject", i, res.DegradedReason)
		}
	}

	fs := srv.Stats().Faults
	if fs.Rejects != n {
		t.Errorf("rejects = %d, want %d", fs.Rejects, n)
	}
	if fs.Degradations != n {
		t.Errorf("degradations = %d, want %d", fs.Degradations, n)
	}
	if fs.Panics != 0 {
		t.Errorf("panics = %d, want 0: a reject is not a worker panic", fs.Panics)
	}
	if h := srv.Health(); h != HealthOK {
		t.Errorf("health = %q after rejects, want %q", h, HealthOK)
	}
}
