package dis_test

import (
	"errors"
	"testing"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// TestUndecodableCarriesEncoding checks that decode failures recorded in
// Result.Undecodable are typed IllegalInstErrors, so coverage reports and
// fuzz divergence dumps can print the raw bits at each unreachable address.
func TestUndecodableCarriesEncoding(t *testing.T) {
	const badWord = 0x0000002F
	b := asm.NewBuilder(riscv.RV64GC)
	b.Func("main")
	b.Nop()
	b.Raw(badWord)
	img, err := b.Build("undecodable", "main")
	if err != nil {
		t.Fatal(err)
	}
	res := dis.Disassemble(img)
	if len(res.Undecodable) == 0 {
		t.Fatal("no undecodable addresses recorded")
	}
	found := false
	for _, bad := range res.Undecodable {
		var ie *riscv.IllegalInstError
		if !errors.As(bad.Err, &ie) {
			t.Fatalf("Undecodable at %#x = %v (%T), want *IllegalInstError", bad.Addr, bad.Err, bad.Err)
		}
		if ie.Raw == badWord && ie.Width == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no undecodable entry carries the planted encoding %#08x: %v", badWord, res.Undecodable)
	}
}
