package service

import (
	"github.com/eurosys26p57/chimera/internal/store"
)

// This file adapts the service's RewriteResult to the store package's Entry:
// the rewritten image bytes become the entry payload and the per-rewrite
// stats ride in its in-process Value. The method and target are not stored:
// the key encodes both, so a hit takes them from the request. Per-request
// markers like CacheHit/Deduped describe how THIS request was served, not
// what is stored.

// CacheStats is the /stats cache block: the cache's counters plus the
// derived hit ratio.
type CacheStats struct {
	store.Stats
	// HitRatio is Hits / (Hits + Misses), 0 when no lookups happened.
	HitRatio float64 `json:"hit_ratio"`
}
