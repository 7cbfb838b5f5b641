package service

import (
	"context"
	"strings"
	"testing"
)

// TestRewriteRejectBypassesBreaker sends the same adversarial image (entry
// overwritten with undecodable bytes, so Safer's regeneration cannot
// relocate it) more times than the breaker's failure threshold. The typed
// ErrRewriteReject path must degrade each request to the original image
// WITHOUT retries, attempt-failure accounting, or breaker strikes: an
// adversarial-input wave is not an infrastructure failure and must not
// quarantine the config for well-formed binaries behind it.
func TestRewriteRejectBypassesBreaker(t *testing.T) {
	img := testImages(t, 1)[0]
	if err := img.WriteAt(img.Entry, []byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, QuarantineAfter: 3})
	defer srv.Shutdown(context.Background())

	const n = 8 // well past the breaker threshold
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
	if fs.Retries != 0 || fs.AttemptFailures != 0 {
		t.Errorf("reject path leaked into retry accounting: retries=%d attempts=%d",
			fs.Retries, fs.AttemptFailures)
	}
	if fs.QuarantineTrips != 0 || fs.QuarantinedConfigs != 0 {
		t.Errorf("reject path tripped the breaker: trips=%d active=%d",
			fs.QuarantineTrips, fs.QuarantinedConfigs)
	}
	if fs.Degradations != n {
		t.Errorf("degradations = %d, want %d", fs.Degradations, n)
	}
	if h := srv.Health(); h != HealthOK {
		t.Errorf("health = %q after rejects, want %q", h, HealthOK)
	}
}
