package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"

	"github.com/eurosys26p57/chimera/internal/store"
)

// PeerPathPrefix is the peer-protocol route every node serves:
//
//	GET /peer/store/{id}  -> 200 + encoded entry | 404 on a miss
//	PUT /peer/store/{id}  -> 204, body is the encoded entry
//
// {id} is hex(SHA-256(key)) — a fixed-shape address safe to put in a URL —
// and the full cache key rides in the KeyHeader so the receiver can verify
// that the id actually names that key. Bodies travel in the store codec,
// which embeds its own checksum: the receiving side decodes-and-verifies,
// so a corrupt body (truncation, bit flips, a hostile peer) is detected
// wholesale rather than trusted.
const PeerPathPrefix = "/peer/store/"

// KeyHeader carries the full cache key alongside the hashed URL id.
const KeyHeader = "X-Chimera-Key"

// maxPeerEntryBytes bounds how much of a peer response we will read: the
// service caps request images at 64 MiB, so an honest encoded entry (image
// plus small meta) always fits; anything larger is hostile or corrupt.
const maxPeerEntryBytes = 80 << 20

// EntryID is the URL-safe address of a cache key: hex(SHA-256(key)).
func EntryID(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// Remote speaks the peer protocol to one node. Unlike the local stores'
// Get and Put, its calls take a context and return errors: a peer can fail
// in ways a local store cannot, and the Cluster's health gating wants those
// failures distinguished from misses.
type Remote struct {
	base   string // e.g. "http://10.0.0.2:8080"
	client *http.Client
}

// NewRemote returns a Remote for the peer at base using client (which
// carries the peer timeout).
func NewRemote(base string, client *http.Client) *Remote {
	return &Remote{base: base, client: client}
}

// Get fetches key from the peer. Returns (entry, true, nil) on a verified
// hit, (nil, false, nil) on a clean miss (404), and an error for anything
// that should count against the peer's health: transport failures,
// non-200/404 statuses, bodies that fail decode, or an entry whose key does
// not match what was asked for.
func (r *Remote) Get(ctx context.Context, key string) (*store.Entry, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url(key), nil)
	if err != nil {
		return nil, false, err
	}
	req.Header.Set(KeyHeader, key)
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("cluster: peer %s returned %s", r.base, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerEntryBytes+1))
	if err != nil {
		return nil, false, fmt.Errorf("cluster: reading peer entry: %w", err)
	}
	if len(body) > maxPeerEntryBytes {
		return nil, false, fmt.Errorf("cluster: peer entry exceeds %d bytes", maxPeerEntryBytes)
	}
	e, err := store.DecodeEntry(body)
	if err != nil {
		return nil, false, fmt.Errorf("cluster: peer %s sent corrupt entry: %w", r.base, err)
	}
	if e.Key != key {
		return nil, false, fmt.Errorf("cluster: peer %s answered for the wrong key", r.base)
	}
	return e, true, nil
}

// Put offers an entry to the peer (fire-and-forget durability: the caller
// does not depend on it succeeding).
func (r *Remote) Put(ctx context.Context, e *store.Entry) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, r.url(e.Key),
		bytes.NewReader(store.EncodeEntry(e)))
	if err != nil {
		return err
	}
	req.Header.Set(KeyHeader, e.Key)
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: peer %s rejected offer: %s", r.base, resp.Status)
	}
	return nil
}

func (r *Remote) url(key string) string {
	return r.base + PeerPathPrefix + EntryID(key)
}
