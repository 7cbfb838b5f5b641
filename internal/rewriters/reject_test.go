package rewriters

import (
	"errors"
	"testing"

	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// TestRejectRecoversPanic pins the entry-point hardening contract: a panic
// inside a rewriter unwinds into a typed ErrRewriteReject, never out of the
// package.
func TestRejectRecoversPanic(t *testing.T) {
	out, err := func() (out *Output, err error) {
		defer reject("test", &out, &err)
		panic("boom")
	}()
	if out != nil {
		t.Fatalf("result survived a panic: %+v", out)
	}
	if !errors.Is(err, ErrRewriteReject) {
		t.Fatalf("panic not folded into ErrRewriteReject: %v", err)
	}
}

// corruptEntry returns a well-formed program whose entry instruction was
// overwritten with undecodable garbage.
func corruptEntry(t *testing.T) *obj.Image {
	t.Helper()
	img := buildProgram(t, false)
	if err := img.WriteAt(img.Entry, []byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	return img
}

// TestCorruptEntryRejects feeds the regeneration rewriters an image whose
// entry instruction is undecodable: the entry cannot be relocated, and the
// failure must come back as the typed reject (so the service skips retries
// and the breaker, and the eval matrix grades the cell `reject`, not
// `crash`).
func TestCorruptEntryRejects(t *testing.T) {
	if _, err := SaferWith(corruptEntry(t), riscv.RV64GC, false, nil); !errors.Is(err, ErrRewriteReject) {
		t.Errorf("safer: got %v, want ErrRewriteReject", err)
	}
	if _, err := ARMoreWith(corruptEntry(t), riscv.RV64GC, false, nil); !errors.Is(err, ErrRewriteReject) {
		t.Errorf("armore: got %v, want ErrRewriteReject", err)
	}
	// Caller mistakes are not input rejects: a missing target ISA stays a
	// plain config error.
	if _, err := chbp.Rewrite(corruptEntry(t), chbp.Options{}); err == nil || errors.Is(err, chbp.ErrRewriteReject) {
		t.Errorf("chbp config error must stay a plain error, got %v", err)
	}
}
