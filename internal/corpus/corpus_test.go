package corpus

import (
	"bytes"
	"context"
	"crypto/sha256"
	"testing"

	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

var testSeeds = []int64{1, 2, 7}

// imageFingerprint hashes every section's wire bytes plus the symbol table
// — the full observable identity of a built image.
func imageFingerprint(t *testing.T, img *obj.Image) [32]byte {
	t.Helper()
	var buf bytes.Buffer
	for _, s := range img.Sections {
		buf.WriteString(s.Name)
		buf.Write(s.Data)
	}
	for _, sym := range img.Symbols {
		buf.WriteString(sym.Name)
	}
	return sha256.Sum256(buf.Bytes())
}

// TestFamilyDeterminism: the same (family, seed) must build a
// byte-identical image every time — the property that makes matrix cells
// reproducible and baseline-gateable.
func TestFamilyDeterminism(t *testing.T) {
	for _, f := range Families() {
		for _, seed := range testSeeds {
			a, err := f.Build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", f.Name, seed, err)
			}
			b, err := f.Build(seed)
			if err != nil {
				t.Fatalf("%s seed %d rebuild: %v", f.Name, seed, err)
			}
			if imageFingerprint(t, a.Image) != imageFingerprint(t, b.Image) {
				t.Errorf("%s seed %d: rebuild produced different bytes", f.Name, seed)
			}
			if a.Budget != b.Budget {
				t.Errorf("%s seed %d: rebuild produced different budget", f.Name, seed)
			}
		}
	}
}

// TestFamilySeedsDiffer: distinct seeds must produce distinct programs —
// a constant generator would fake a 100% pass rate at zero coverage.
func TestFamilySeedsDiffer(t *testing.T) {
	for _, f := range Families() {
		a, err := f.Build(1)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		b, err := f.Build(2)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if imageFingerprint(t, a.Image) == imageFingerprint(t, b.Image) {
			t.Errorf("%s: seeds 1 and 2 built identical images", f.Name)
		}
	}
}

// TestOriginalRunsClean: every family's unmodified image must run to a
// clean exit — never a signal kill — within its budget on a full RV64GCV
// core. The corpus is adversarial toward rewriters, never toward the
// reference run.
func TestOriginalRunsClean(t *testing.T) {
	for _, f := range Families() {
		for _, seed := range testSeeds {
			prog, err := f.Build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", f.Name, seed, err)
			}
			v, err := kernel.VariantFromImage(prog.Image)
			if err != nil {
				t.Fatalf("%s seed %d: %v", f.Name, seed, err)
			}
			p, err := kernel.NewProcess(prog.Image.Name, []kernel.Variant{v})
			if err != nil {
				t.Fatalf("%s seed %d: %v", f.Name, seed, err)
			}
			p.CPU.ISA = riscv.RV64GCV
			p.CPU.MaxInstret = prog.Budget
			_, st, err := p.RunToExit(context.Background(), 100_000)
			if err != nil {
				t.Fatalf("%s seed %d: run: %v", f.Name, seed, err)
			}
			if st != kernel.StatusExited {
				t.Fatalf("%s seed %d: stopped with status %v within budget %d", f.Name, seed, st, prog.Budget)
			}
			if p.Signal != 0 {
				t.Errorf("%s seed %d: original image killed by signal %d", f.Name, seed, p.Signal)
			}
		}
	}
}

// TestStrippedAxis: no symbols whatsoever.
func TestStrippedAxis(t *testing.T) {
	for _, seed := range testSeeds {
		prog, err := Build("stripped", seed)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(prog.Image.Symbols); n != 0 {
			t.Errorf("seed %d: stripped image carries %d symbols", seed, n)
		}
	}
}

// TestDataTextAxis: the declared blob range sits inside an executable
// section, and the blob's leading bytes decode as plausible instructions —
// the linear-sweep trap must actually be armed.
func TestDataTextAxis(t *testing.T) {
	for _, seed := range testSeeds {
		prog, err := Build("datatext", seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(prog.DataInText) == 0 {
			t.Fatalf("seed %d: no DataInText evidence", seed)
		}
		for _, r := range prog.DataInText {
			s := prog.Image.SectionAt(r.Start)
			if s == nil || s.Perm&obj.PermX == 0 {
				t.Fatalf("seed %d: blob range %#x not in an executable section", seed, r.Start)
			}
			if !s.Contains(r.End - 1) {
				t.Fatalf("seed %d: blob range %#x..%#x escapes its section", seed, r.Start, r.End)
			}
			head := make([]byte, 4)
			if err := prog.Image.ReadAt(r.Start, head); err != nil {
				t.Fatal(err)
			}
			if _, err := riscv.Decode(head); err != nil {
				t.Errorf("seed %d: blob head does not decode as an instruction — trap not armed", seed)
			}
		}
	}
}

// TestMisalignedAxis: the text must mix 2-byte and 4-byte encodings, and a
// linear walk must place at least one instruction start on a 2-mod-4
// address — the alignment property batching logic has to survive.
func TestMisalignedAxis(t *testing.T) {
	for _, seed := range testSeeds {
		prog, err := Build("misaligned", seed)
		if err != nil {
			t.Fatal(err)
		}
		text := prog.Image.Text()
		var compressed, wide, midWord int
		for off := 0; off+2 <= len(text.Data); {
			in, err := riscv.Decode(text.Data[off:])
			if err != nil {
				off += 2
				continue
			}
			if in.Len == 2 {
				compressed++
			} else {
				wide++
			}
			if off%4 == 2 {
				midWord++
			}
			off += in.Len
		}
		if compressed == 0 || wide == 0 {
			t.Errorf("seed %d: not a mixed-width image (compressed=%d wide=%d)", seed, compressed, wide)
		}
		if midWord == 0 {
			t.Errorf("seed %d: no instruction starts on a 2-mod-4 address", seed)
		}
	}
}

// TestDenseTableAxis: hidden code, and the jump table lives in read-only
// memory (the anchored case the resolver may patch).
func TestDenseTableAxis(t *testing.T) {
	for _, seed := range testSeeds {
		prog, err := Build("densetable", seed)
		if err != nil {
			t.Fatal(err)
		}
		if !prog.HiddenCode {
			t.Fatalf("seed %d: densetable without HiddenCode evidence", seed)
		}
		sym, ok := prog.Image.Lookup("swtab")
		if !ok {
			t.Fatalf("seed %d: no swtab symbol", seed)
		}
		s := prog.Image.SectionAt(sym.Addr)
		if s == nil || s.Perm&obj.PermW != 0 {
			t.Errorf("seed %d: densetable table is not read-only", seed)
		}
	}
}

// TestWritableTableAxis: the table is writable, and the arm symbols are
// gone — both conditions the resolver needs to refuse a static patch.
func TestWritableTableAxis(t *testing.T) {
	for _, seed := range testSeeds {
		prog, err := Build("writabletable", seed)
		if err != nil {
			t.Fatal(err)
		}
		sym, ok := prog.Image.Lookup("swtab")
		if !ok {
			t.Fatalf("seed %d: no swtab symbol", seed)
		}
		s := prog.Image.SectionAt(sym.Addr)
		if s == nil || s.Perm&obj.PermW == 0 {
			t.Errorf("seed %d: writabletable table is not writable", seed)
		}
		for _, sym := range prog.Image.Symbols {
			if sym.Kind == obj.SymFunc && len(sym.Name) >= 3 && sym.Name[:3] == "arm" {
				t.Errorf("seed %d: arm symbol %q survived stripping", seed, sym.Name)
			}
		}
	}
}

// TestAsmIdiomsAxis: the mid-function-entry evidence is set and the image
// actually publishes the generator's mid-entry machinery.
func TestAsmIdiomsAxis(t *testing.T) {
	for _, seed := range testSeeds {
		prog, err := Build("asmidioms", seed)
		if err != nil {
			t.Fatal(err)
		}
		if !prog.MidEntry {
			t.Fatalf("seed %d: asmidioms without MidEntry evidence", seed)
		}
	}
}

// TestOversizedAxis: the text span must exceed the jal direct-jump reach
// (±1MB), the property that forces trap trampolines out of
// single-instruction-patch rewriters.
func TestOversizedAxis(t *testing.T) {
	for _, seed := range testSeeds {
		prog, err := Build("oversized", seed)
		if err != nil {
			t.Fatal(err)
		}
		const jalReach = 1 << 20
		if prog.TextSpan <= jalReach {
			t.Errorf("seed %d: text span %d does not exceed jal reach %d", seed, prog.TextSpan, jalReach)
		}
	}
}
