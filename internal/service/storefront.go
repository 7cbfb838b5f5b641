package service

import (
	"encoding/json"
	"fmt"

	"github.com/eurosys26p57/chimera/internal/store"
)

// This file adapts the service's RewriteResult to the store package's Entry:
// the rewritten image bytes become the entry payload and the per-rewrite
// stats ride in the metadata sidecar, so a result can round-trip through any
// tier — memory, disk, or a peer — and come back as the same RewriteResult
// (minus per-request markers like CacheHit/Deduped, which describe how THIS
// request was served, not what is stored).

// CacheStats is the /stats cache block: the memory tier's counters plus the
// derived hit ratio (kept from the pre-tiered schema so dashboards survive).
// The memory tier never sets Errors, so its omitempty key stays absent.
type CacheStats struct {
	store.Stats
	// HitRatio is Hits / (Hits + Misses), 0 when no lookups happened.
	HitRatio float64 `json:"hit_ratio"`
}

// entryMeta is the JSON sidecar stored alongside the image bytes.
type entryMeta struct {
	Method string       `json:"method"`
	Target string       `json:"target"`
	Stats  RewriteStats `json:"stats"`
}

// wireStats returns st as a stored entry carries it: the JSON round trip
// drops the rewriter internals that stay off the wire, so a cold answer
// and a cache hit report the same stats.
func wireStats(st RewriteStats) (RewriteStats, error) {
	var out RewriteStats
	b, err := json.Marshal(st)
	if err == nil {
		err = json.Unmarshal(b, &out)
	}
	if err != nil {
		return RewriteStats{}, fmt.Errorf("service: encoding stats: %w", err)
	}
	return out, nil
}

// entryFromResult renders a completed rewrite as a store entry.
func entryFromResult(res *RewriteResult) (*store.Entry, error) {
	meta, err := json.Marshal(entryMeta{Method: res.Method, Target: res.Target, Stats: res.Stats})
	if err != nil {
		return nil, fmt.Errorf("service: encoding entry meta: %w", err)
	}
	return &store.Entry{Key: res.Key, Meta: meta, Data: res.ImageBytes}, nil
}

// resultFromEntry reconstructs the RewriteResult a stored entry encodes. The
// entry's bytes were checksum-verified by whichever tier produced it; a meta
// sidecar that still fails to parse means a version skew, which callers
// treat as a miss (delete and rewrite), never an error.
func resultFromEntry(e *store.Entry) (*RewriteResult, error) {
	var meta entryMeta
	if err := json.Unmarshal(e.Meta, &meta); err != nil {
		return nil, fmt.Errorf("service: decoding entry meta: %w", err)
	}
	return &RewriteResult{
		Key:        e.Key,
		Method:     meta.Method,
		Target:     meta.Target,
		ImageBytes: e.Data,
		Stats:      meta.Stats,
	}, nil
}
