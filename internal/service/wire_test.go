package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/eurosys26p57/chimera/internal/obj"
)

// referenceDecode is the decoder decodeBody replaced, verbatim.
func referenceDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: decoding body: %v", ErrBadRequest, err)
	}
	return nil
}

// serverDecode runs body through decodeBody as a handler would.
func serverDecode(s *Server, body []byte, v any) error {
	r := httptest.NewRequest(http.MethodPost, "/rewrite", bytes.NewReader(body))
	wb, err := s.decodeBody(httptest.NewRecorder(), r, nil, v)
	defer wb.release()
	return err
}

// checkDecodeEquivalent requires decodeBody and encoding/json to agree on
// body for both fast-path body types: the same struct, or the same error.
func checkDecodeEquivalent(t *testing.T, s *Server, body []byte) {
	t.Helper()
	for _, newV := range []func() any{
		func() any { return new(rewriteHTTPRequest) },
		func() any { return new(runHTTPRequest) },
	} {
		got, want := newV(), newV()
		gotErr := serverDecode(s, body, got)
		wantErr := referenceDecode(body, want)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("%T: decodeBody error %v, encoding/json error %v\nbody %q", got, gotErr, wantErr, body)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("%T: decodeBody error %q, encoding/json %q\nbody %q", got, gotErr, wantErr, body)
		case gotErr == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("%T: decodeBody %+v, encoding/json %+v\nbody %q", got, got, want, body)
		}
	}
}

// decodeSeeds are bodies at the edges of the fast path: each either takes
// it or must fall back to exactly encoding/json's answer.
func decodeSeeds() [][]byte {
	img := []byte("CHIM\x01\x00image bytes \x00\xff")
	good, _ := json.Marshal(rewriteHTTPRequest{Method: "chbp", Target: "rv64gc", Resolve: true, Image: img})
	run, _ := json.Marshal(runHTTPRequest{ISA: "rv64gc", Image: img, With: img})
	b64 := string(good[bytes.Index(good, []byte(`"image":"`))+9 : len(good)-2])
	seeds := []string{
		string(good),
		string(run),
		`{}`,
		` {"method":"chbp"} `,
		"\t{\r\n\"method\" : \"chbp\" ,\n\"target\":\"rv64gc\",\"empty_patch\": true ,\"image\":\"" + b64 + "\"}",
		`{"method":"chbp","target":"rv64gc"}`,
		`{"method":"chbp\"","target":"rv64gc"}`,
		`{"IMAGE":"` + b64 + `"}`,
		`{"Method":"chbp"}`,
		`{"method":"chbp","method":"safer"}`,
		`{"image":"` + b64 + `","image":"AAAA"}`,
		`{"image":null}`,
		`{"method":null}`,
		`{"resolve":null}`,
		`{"resolve":1}`,
		`{"resolve":"true"}`,
		`{"method":true}`,
		`{"image":true}`,
		`{"method":{"a":1}}`,
		`{"method":["chbp"]}`,
		`{"method":"chbp"} trailing garbage`,
		`{"method":"chbp"}{"method":"safer"}`,
		`{"method":"chbp",}`,
		`{"method" "chbp"}`,
		`{"method":"chbp"`,
		`{"image":"` + b64[:len(b64)/2],
		`{"image":"` + b64[:len(b64)-1] + `"}`,
		`{"image":"` + b64[:8] + "\r\n" + b64[8:] + `"}`,
		`{"image":"` + b64[:8] + `\r\n` + b64[8:] + `"}`,
		`{"image":"` + b64[:8] + `\/` + b64[8:] + `"}`,
		`{"image":"` + b64[:8] + " " + b64[8:] + `"}`,
		`{"image":""}`,
		`{"image":"===="}`,
		"{\"method\":\"ch\xffbp\"}",
		"{\"method\":\"ch\xc3\xa9bp\"}",
		"{\"method\":\"ch\x01bp\"}",
		"{\"method\":\"ch\x7fbp\"}",
		"{\"meth\xffod\":\"chbp\"}",
		`{"unknown":"x"}`,
		`{"isa":"rv64gc","with":"` + b64 + `"}`,
		`{"resolve":tru}`,
		`{"resolve":truex}`,
		`{"resolve":false}`,
		`[]`,
		`null`,
		``,
		` `,
		"\xef\xbb\xbf{}",
	}
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		out[i] = []byte(s)
	}
	return out
}

// FuzzDecodeBody is the differential check on the one-pass decoder: for
// any body, decodeBody and encoding/json agree on rewrite and run bodies.
func FuzzDecodeBody(f *testing.F) {
	for _, b := range decodeSeeds() {
		f.Add(b)
	}
	s := &Server{tel: newServiceMetrics()}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeEquivalent(t, s, body)
	})
}

// TestDecodeBodyFastPath pins which bodies the scanner takes: whatever
// encoding/json marshals from the request structs, and none of the shapes
// it must leave to the fallback. (FuzzDecodeBody's seeds, run by go test,
// check that both paths agree with encoding/json.)
func TestDecodeBodyFastPath(t *testing.T) {
	img := wire(t, testImages(t, 1)[0])
	take := []any{
		&rewriteHTTPRequest{Method: "chbp", Target: "rv64gc", Image: img},
		&rewriteHTTPRequest{Method: "safer", Target: "rv64gcv", EmptyPatch: true, DisableExitShift: true,
			DisableBatching: true, DisableUpgrade: true, Resolve: true, Image: img},
		&runHTTPRequest{Image: img},
		&runHTTPRequest{ISA: "rv64gc", Image: img, With: img},
	}
	for _, v := range take {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got := reflect.New(reflect.TypeOf(v).Elem()).Interface()
		wb := new(wireBuf)
		if !decodeFlat(body, wb, got) {
			t.Errorf("%T: fast path refused an encoding/json body", v)
		} else if !reflect.DeepEqual(got, v) {
			t.Errorf("%T: fast path decoded %+v, want %+v", v, got, v)
		}
	}
	leave := []string{
		`{"IMAGE":"AAAA"}`, `{"method":"a","method":"b"}`,
		`{"image":null}`, `{"resolve":1}`, `{"method":{}}`, "{\"image\":\"AA\r\nAA\"}",
		"{\"method\":\"\xc3\xa9\"}",
	}
	for _, body := range leave {
		if decodeFlat([]byte(body), new(wireBuf), new(rewriteHTTPRequest)) {
			t.Errorf("fast path took %q; it must fall back", body)
		}
	}
}

// TestDecodeBodyTooLarge: a body past the bound is refused with
// encoding/json's error text only when the object does not end before the
// bound, exactly as a json.Decoder streaming the bounded reader did.
func TestDecodeBodyTooLarge(t *testing.T) {
	s := &Server{tel: newServiceMetrics()}
	decode := func(head, tail string) (rewriteHTTPRequest, error) {
		body := io.MultiReader(strings.NewReader(head),
			io.LimitReader(spaces{}, maxBodyBytes), strings.NewReader(tail))
		var v rewriteHTTPRequest
		wb, err := s.decodeBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/rewrite", body), nil, &v)
		wb.release()
		return v, err
	}
	if v, err := decode(`{"method":"chbp","target":"rv64gc"}`, ""); err != nil || v.Method != "chbp" {
		t.Errorf("object within the bound, padding past it: %+v, %v; want decoded", v, err)
	}
	_, err := decode(`{"method":"chbp",`, "}")
	if err == nil || !strings.Contains(err.Error(), "decoding body: http: request body too large") {
		t.Errorf("object past the bound: %v; want the body-too-large error", err)
	}
}

// TestReadBodyDeclaredLength: a declared Content-Length sizes the buffer
// only up to firstChunk, so a client that claims the whole body bound and
// sends a few bytes does not make the server allocate the bound.
func TestReadBodyDeclaredLength(t *testing.T) {
	body, err := readBody(nil, strings.NewReader(`{"method":"chbp"}`), maxBodyBytes)
	if err != nil || string(body) != `{"method":"chbp"}` {
		t.Fatalf("readBody = %q, %v", body, err)
	}
	if cap(body) > firstChunk+1 {
		t.Errorf("declared %d bytes, sent %d: buffer capacity %d, want at most %d",
			maxBodyBytes, len(body), cap(body), firstChunk+1)
	}
	// A body longer than the first chunk still arrives whole.
	long := strings.Repeat("x", 3*firstChunk+7)
	if body, err := readBody(nil, strings.NewReader(long), int64(len(long))); err != nil || string(body) != long {
		t.Fatalf("readBody of %d bytes: got %d bytes, %v", len(long), len(body), err)
	}
}

// spaces reads as an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestWireKeyMatchesContentID: the key of a canonical wire form is the
// parsed image's cacheKey, and a wire with trailing bytes (a non-canonical
// encoding ReadImage accepts) is served from the canonical entry with the
// same key and the same bytes.
func TestWireKeyMatchesContentID(t *testing.T) {
	img := testImages(t, 1)[0]
	w := wire(t, img)
	for _, r := range combos(t, []*obj.Image{img}) {
		cfg, err := validateRewrite(r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cacheKey(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := wireKey(w, cfg); got != want {
			t.Fatalf("%s/%s: wireKey %s, cacheKey %s", r.Method, r.Target, got, want)
		}
	}

	srv := New(Config{Workers: 2})
	defer srv.Shutdown(context.Background())
	ctx := context.Background()
	cold, err := srv.Rewrite(ctx, &RewriteRequest{Method: "chbp", Target: "rv64gc", Wire: w})
	if err != nil || cold.CacheHit || cold.Degraded {
		t.Fatalf("cold wire rewrite: %+v, %v", cold, err)
	}
	trailing := append(append([]byte{}, w...), "trailing bytes"...)
	before := srv.Stats().Completed
	hit, err := srv.Rewrite(ctx, &RewriteRequest{Method: "chbp", Target: "rv64gc", Wire: trailing})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.Key != cold.Key || !bytes.Equal(hit.ImageBytes, cold.ImageBytes) {
		t.Fatalf("trailing-bytes wire: hit=%t key %s, want a hit on %s with the same bytes", hit.CacheHit, hit.Key, cold.Key)
	}
	if after := srv.Stats().Completed; after != before {
		t.Fatalf("trailing-bytes wire ran %d rewrites, want 0", after-before)
	}

	// A miss on a non-canonical wire is keyed, answered and stored under
	// the canonical key too.
	cold2, err := srv.Rewrite(ctx, &RewriteRequest{Method: "safer", Target: "rv64gc", Wire: trailing})
	if err != nil || cold2.CacheHit {
		t.Fatalf("cold trailing-bytes rewrite: %+v, %v", cold2, err)
	}
	cfg, _ := validateRewrite(&RewriteRequest{Method: "safer", Target: "rv64gc", Wire: w})
	if want, _ := cacheKey(img, cfg); cold2.Key != want {
		t.Fatalf("cold trailing-bytes key %s, want %s", cold2.Key, want)
	}
	again, err := srv.Rewrite(ctx, &RewriteRequest{Method: "safer", Target: "rv64gc", Wire: w})
	if err != nil || !again.CacheHit || !bytes.Equal(again.ImageBytes, cold2.ImageBytes) {
		t.Fatalf("canonical wire after a trailing-bytes miss: hit=%t, %v", again.CacheHit, err)
	}
}
