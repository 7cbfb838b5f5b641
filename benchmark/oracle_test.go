package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/eurosys26p57/chimera/internal/obj"
)

// tamper wraps a server so that on path, once `skip` answers matching when
// have passed untouched, every further matching answer is edited by
// mutate on the wire. Each server gets its own count.
func tamper(t *testing.T, path string, skip int64, when func(map[string]any) bool, mutate func(map[string]any)) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		var seen atomic.Int64
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != path {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			var ans map[string]any
			if rec.Code == http.StatusOK && json.Unmarshal(body, &ans) == nil && when(ans) && seen.Add(1) > skip {
				mutate(ans)
				var err error
				if body, err = json.Marshal(ans); err != nil {
					t.Error(err)
				}
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

func always(map[string]any) bool { return true }

// flipTextByte flips one byte of the served image's code: the first byte
// of the entry instruction (Safer moves the entry out of .text).
func flipTextByte(t *testing.T) func(map[string]any) {
	return func(ans map[string]any) {
		raw, err := base64.StdEncoding.DecodeString(ans["image"].(string))
		if err != nil {
			t.Error(err)
			return
		}
		img, err := obj.ReadImage(bytes.NewReader(raw))
		if err != nil {
			t.Error(err)
			return
		}
		code := img.SectionAt(img.Entry)
		code.Data[img.Entry-code.Addr] ^= 0xFF
		var buf bytes.Buffer
		if _, err := img.WriteTo(&buf); err != nil {
			t.Error(err)
			return
		}
		ans["image"] = base64.StdEncoding.EncodeToString(buf.Bytes())
	}
}

// mustFail runs the workload for one second against a tampered server and
// requires a non-zero exit and a result counting failures.
func mustFail(t *testing.T, workload string, wrap func(http.Handler) http.Handler) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := benchMain(options{workload: workload, seed: 1, seconds: 1, wrap: wrap}, "", &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit code 0 with corrupted answers; stdout:\n%s", stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("no result line (%v); stderr:\n%s", err, stderr.String())
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("result %+v does not count the corrupted answers", res)
	}
	t.Logf("%d of %d failed: %s", res.Failed, res.Attempted, strings.TrimSpace(stderr.String()))
}

func TestOracleCatchesFlippedTextByte(t *testing.T) {
	mustFail(t, "rewrite-cold", tamper(t, "/rewrite", 0, always, flipTextByte(t)))
}

func TestOracleCatchesWrongExitCode(t *testing.T) {
	// Leave the set-up runs (one per program) and the warm-up alone, so the
	// corrupted answers land in the measured window.
	skip := int64(24 + warmupOps)
	mustFail(t, "run", tamper(t, "/run", skip, always, func(ans map[string]any) {
		ans["exit_code"] = ans["exit_code"].(float64) + 1
	}))
}

func TestOracleCatchesWarmAnswerDifferingFromPrewarm(t *testing.T) {
	hit := func(ans map[string]any) bool { return ans["cache_hit"] == true }
	mustFail(t, "rewrite-warm", tamper(t, "/rewrite", warmupOps, hit, flipTextByte(t)))
}
