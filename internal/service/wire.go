package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"time"

	"github.com/eurosys26p57/chimera/internal/telemetry"
)

// This file is the service's request body decoder, an exact stand-in for
// encoding/json: decodeBody yields the struct json.Decoder would, or the
// error it would report. It exists because on a warm hit the JSON decode
// of the body, not the cache, was the cost (DESIGN §17).

// maxPooledBytes caps the buffers a wireBuf keeps for reuse, so one huge
// body does not pin its buffer in the pool.
const maxPooledBytes = 8 << 20

// wireBuf holds one request's pooled buffers: the raw body and the
// decoded base64 fields. The []byte fields of a fast-path decode alias
// them, so they are valid only until release.
type wireBuf struct {
	body []byte
	bins [2][]byte // image, with
	nbin int
}

var wireBufs = sync.Pool{New: func() any { return new(wireBuf) }}

// release returns the buffers to the pool. Nil-safe.
func (wb *wireBuf) release() {
	if wb == nil {
		return
	}
	if cap(wb.body) > maxPooledBytes {
		wb.body = nil
	}
	for i, b := range wb.bins {
		if cap(b) > maxPooledBytes {
			wb.bins[i] = nil
		}
	}
	wb.nbin = 0
	wireBufs.Put(wb)
}

// decodeBody reads the bounded body of r into a pooled buffer and decodes
// it into v, recording the decode span and stage. /rewrite and /run
// bodies (*rewriteHTTPRequest, *runHTTPRequest) take a one-pass scanner
// when they are flat objects of escape-free ASCII strings, booleans and
// base64 fields; everything else, and any body the scanner does not
// accept, goes to json.Decoder with DisallowUnknownFields over the same
// bytes, so the result and every error text are encoding/json's. The
// caller must release the returned buffer once v's []byte fields are no
// longer needed.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, tr *telemetry.Trace, v any) (*wireBuf, error) {
	sp := tr.Span("decode")
	start := time.Now()
	defer func() {
		observeStage(s.tel.stageDecode, time.Since(start))
		sp.End()
	}()
	if tw, ok := w.(tracedWriter); ok {
		// MaxBytesReader closes the connection after an oversized body
		// through the server's own writer, not a wrapper.
		w = tw.ResponseWriter
	}
	wb := wireBufs.Get().(*wireBuf)
	body, rerr := readBody(wb.body[:0], http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	wb.body = body
	if rerr == nil && decodeFlat(body, wb, v) {
		return wb, nil
	}
	// json.Decoder stops at the end of the first value, so a read error
	// past it never surfaces; replaying the bytes and then the error keeps
	// that.
	var src io.Reader = bytes.NewReader(body)
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return wb, fmt.Errorf("%w: decoding body: %v", ErrBadRequest, err)
	}
	return wb, nil
}

// firstChunk bounds how much of a declared Content-Length readBody
// allocates before any body bytes arrive: the length is only the client's
// claim.
const firstChunk = 1 << 20

// readBody appends all of r to buf. It sizes buf up front for the
// declared length, up to firstChunk, and beyond that grows it only as
// bytes arrive, doubling.
func readBody(buf []byte, r io.Reader, declared int64) ([]byte, error) {
	if want := int(min(declared, firstChunk)); want > cap(buf) {
		buf = make([]byte, 0, want+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(len(buf), 512))
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeFlat is the one-pass fast path: it fills v from body and reports
// whether it could. On false v is left zero for the fallback decoder.
func decodeFlat(body []byte, wb *wireBuf, v any) bool {
	var set func(name []byte, val flatValue) bool
	switch b := v.(type) {
	case *rewriteHTTPRequest:
		set = func(name []byte, val flatValue) bool { return b.setField(name, val, wb) }
	case *runHTTPRequest:
		set = func(name []byte, val flatValue) bool { return b.setField(name, val, wb) }
	default:
		return false
	}
	if scanFlat(body, set) {
		return true
	}
	reflect.ValueOf(v).Elem().SetZero()
	return false
}

// flatValue is one member value the scanner accepts: a string (raw
// holds the bytes between the quotes, not yet checked) or a boolean.
type flatValue struct {
	raw  []byte
	kind byte // '"', 't' or 'f'
}

// str stores an escape-free ASCII string, the only kind whose raw bytes
// are its decoded value.
func (v flatValue) str(dst *string) bool {
	if v.kind != '"' || !plainASCII(v.raw) {
		return false
	}
	*dst = string(v.raw)
	return true
}

func (v flatValue) flag(dst *bool) bool {
	if v.kind == '"' {
		return false
	}
	*dst = v.kind == 't'
	return true
}

// bin base64-decodes a string into the next pooled buffer, as
// encoding/json decodes a []byte field. base64 accepts only its alphabet
// and '=', which a JSON string holds as themselves, plus CR and LF, which
// it skips but a JSON string may not hold raw; those two are refused
// here. So whatever base64 accepts, encoding/json decodes to the same
// bytes.
func (v flatValue) bin(dst *[]byte, wb *wireBuf) bool {
	if v.kind != '"' || wb.nbin == len(wb.bins) ||
		bytes.IndexByte(v.raw, '\r') >= 0 || bytes.IndexByte(v.raw, '\n') >= 0 {
		return false
	}
	n := base64.StdEncoding.DecodedLen(len(v.raw))
	buf := wb.bins[wb.nbin]
	if buf == nil || cap(buf) < n {
		buf = make([]byte, n)
	}
	n, err := base64.StdEncoding.Decode(buf[:n], v.raw)
	if err != nil {
		return false
	}
	wb.bins[wb.nbin] = buf
	wb.nbin++
	*dst = buf[:n]
	return true
}

func (b *rewriteHTTPRequest) setField(name []byte, v flatValue, wb *wireBuf) bool {
	switch string(name) {
	case "method":
		return v.str(&b.Method)
	case "target":
		return v.str(&b.Target)
	case "empty_patch":
		return v.flag(&b.EmptyPatch)
	case "disable_exit_shift":
		return v.flag(&b.DisableExitShift)
	case "disable_batching":
		return v.flag(&b.DisableBatching)
	case "disable_upgrade":
		return v.flag(&b.DisableUpgrade)
	case "resolve":
		return v.flag(&b.Resolve)
	case "image":
		return v.bin(&b.Image, wb)
	}
	return false
}

func (b *runHTTPRequest) setField(name []byte, v flatValue, wb *wireBuf) bool {
	switch string(name) {
	case "isa":
		return v.str(&b.ISA)
	case "image":
		return v.bin(&b.Image, wb)
	case "with":
		return v.bin(&b.With, wb)
	}
	return false
}

// scanFlat walks one flat JSON object whose names are escape-free ASCII,
// distinct and known to set, and whose values are strings or booleans.
// Bytes after the closing brace are ignored, as json.Decoder ignores
// them. It reports false on anything else.
func scanFlat(b []byte, set func(name []byte, v flatValue) bool) bool {
	var seen [8][]byte
	nseen := 0
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return true
	}
	for {
		name, j, ok := scanString(b, i)
		if !ok || !plainASCII(name) || nseen == len(seen) {
			return false
		}
		for _, prev := range seen[:nseen] {
			if bytes.Equal(prev, name) {
				return false
			}
		}
		seen[nseen] = name
		nseen++
		if i = skipSpace(b, j); i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		var v flatValue
		switch {
		case i < len(b) && b[i] == '"':
			if v.raw, i, ok = scanString(b, i); !ok {
				return false
			}
			v.kind = '"'
		case bytes.HasPrefix(b[i:], []byte("true")):
			v.kind, i = 't', i+4
		case bytes.HasPrefix(b[i:], []byte("false")):
			v.kind, i = 'f', i+5
		default:
			return false
		}
		if !set(name, v) {
			return false
		}
		if i = skipSpace(b, i); i == len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return true
		default:
			return false
		}
	}
}

// scanString returns the bytes between the quote at b[i] and the next
// quote, and the index after the closing one. An escaped quote ends the
// scan early, but then the returned bytes hold a backslash, which every
// consumer refuses.
func scanString(b []byte, i int) ([]byte, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	n := bytes.IndexByte(b[i+1:], '"')
	if n < 0 {
		return nil, 0, false
	}
	return b[i+1 : i+1+n], i + n + 2, true
}

// plainASCII reports whether s is JSON string content that decodes to
// itself: no escapes, no control bytes, nothing outside ASCII.
func plainASCII(s []byte) bool {
	for _, c := range s {
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return false
		}
	}
	return true
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}
