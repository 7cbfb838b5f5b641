package rewriters_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/corpus"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/resolve"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// goldenFile is testdata/golden.json: the SHA-256 of each input image's
// wire bytes, and per service config the SHA-256 of the rewritten wire
// bytes and of the stats JSON the service serves.
type goldenFile struct {
	Images []struct {
		Name   string `json:"name"`
		SHA256 string `json:"sha256"`
	} `json:"images"`
	Cases []struct {
		Image       string `json:"image"`
		Method      string `json:"method"`
		Target      string `json:"target"`
		EmptyPatch  bool   `json:"empty_patch"`
		Resolve     bool   `json:"resolve"`
		WireSHA256  string `json:"wire_sha256,omitempty"`
		StatsSHA256 string `json:"stats_sha256,omitempty"`
		Err         string `json:"err,omitempty"`
	} `json:"cases"`
}

// goldenImages are the three fixed inputs: a small SPEC-suite shape, a
// jump-table dispatch program with a mid-arm entry, and an adversarial
// corpus program with hidden code.
func goldenImages(t *testing.T) []*obj.Image {
	t.Helper()
	sp := workload.SpecSuite()[0].Params
	sp.Name, sp.CodeKB, sp.Rounds = "golden-spec", 64, 2
	spec, err := workload.BuildSpec(sp, true)
	if err != nil {
		t.Fatal(err)
	}
	disp, err := workload.BuildDispatch(workload.DispatchParams{
		Name: "golden-dispatch", Arms: 6, VecArms: 3, Rounds: 8, Compress: true, MidEntry: true,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := corpus.Build("densetable", 1)
	if err != nil {
		t.Fatal(err)
	}
	return []*obj.Image{spec, disp, prog.Image}
}

func wire(t *testing.T, img *obj.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func hexSum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestRewriteGolden pins every service config (4 methods × resolver on/off
// × {downgrade to rv64gc, rv64gcv empty patch}) on three images to the
// wire bytes and stats JSON recorded before the methods shared one
// dispatch.
func TestRewriteGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	imgs := make(map[string]*obj.Image)
	for i, img := range goldenImages(t) {
		if got, want := hexSum(wire(t, img)), g.Images[i].SHA256; img.Name != g.Images[i].Name || got != want {
			t.Fatalf("input %s moved: sha256 %s, golden %s %s", img.Name, got, g.Images[i].Name, want)
		}
		imgs[img.Name] = img
	}
	if len(g.Cases) != 16*len(imgs) {
		t.Fatalf("golden has %d cases, want %d", len(g.Cases), 16*len(imgs))
	}
	for _, c := range g.Cases {
		target := riscv.RV64GC
		if c.EmptyPatch {
			target = riscv.RV64GCV
		}
		out, err := rewriters.Rewrite(imgs[c.Image], rewriters.Config{
			Method: c.Method, Target: target, EmptyPatch: c.EmptyPatch, Resolve: c.Resolve,
		})
		name := c.Image + "/" + c.Method + "/" + target.String()
		if c.Resolve {
			name += "/resolve"
		}
		if err != nil {
			if c.Err == "" || err.Error() != c.Err {
				t.Errorf("%s: error %v, golden %q", name, err, c.Err)
			}
			continue
		}
		st, err := json.Marshal(out.Stats)
		if err != nil {
			t.Fatal(err)
		}
		if got := hexSum(wire(t, out.Image)); got != c.WireSHA256 {
			t.Errorf("%s: wire sha256 %s, golden %s", name, got, c.WireSHA256)
		}
		if got := hexSum(st); got != c.StatsSHA256 {
			t.Errorf("%s: stats %s hash to %s, golden %s", name, st, got, c.StatsSHA256)
		}
	}

	// A caller-supplied TargetSet is the same as letting chbp resolve.
	for _, img := range imgs {
		opts := chbp.Options{TargetISA: riscv.RV64GC}
		with, err := chbp.RewriteWith(img, opts, resolve.Resolve(img))
		if err != nil {
			t.Fatal(err)
		}
		opts.Resolve = true
		own, err := chbp.Rewrite(img, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire(t, with.Image), wire(t, own.Image)) || with.Stats != own.Stats {
			t.Errorf("%s: RewriteWith(resolve.Resolve(img)) differs from Rewrite with Options.Resolve", img.Name)
		}
	}
}
