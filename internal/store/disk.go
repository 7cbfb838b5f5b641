package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eurosys26p57/chimera/internal/chaos"
)

// Disk is the persistent content-addressed tier: one file per entry in the
// store wire format, under 256 fanout directories keyed by the first byte
// of the key's SHA-256 (so no single directory grows unboundedly). Writes
// go to a temp file in the same directory, are fsynced, and reach their
// final name via atomic rename — a crash never leaves a half-written file
// under a valid name. Every read re-verifies the embedded checksum before
// the entry is served; anything that fails (torn writes that bypassed the
// protocol, bit rot, truncation) is deleted and reported as a miss.
//
// Open performs a crash-safe recovery scan: temp leftovers are removed,
// structurally invalid files are removed, and the index is rebuilt from
// the survivors in mtime order (so LRU eviction order approximately
// survives restarts; reads refresh mtimes to keep it current).
type Disk struct {
	dir    string
	budget int64

	mu      sync.Mutex
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	bytes   int64

	hits, misses, evictions, corrupt, errs atomic.Uint64

	met Counters

	// inj, when non-nil, injects disk faults (torn writes, read bit-flips,
	// ENOSPC). Tests and soaks only.
	inj *chaos.Injector
}

// diskEntry is one indexed file: its key, path, and accounting size.
type diskEntry struct {
	key  string
	path string
	size int64 // payload size (key+meta+data), the budget currency
}

// tmpPrefix marks in-flight writes; the recovery scan deletes leftovers.
const tmpPrefix = "tmp-"

// OpenDisk opens (creating if needed) a disk store rooted at dir with the
// given byte budget, running the recovery scan before returning. The chaos
// injector may be nil (production).
func OpenDisk(dir string, budget int64, met Counters, inj *chaos.Injector) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: opening disk store: %w", err)
	}
	d := &Disk{
		dir:     dir,
		budget:  budget,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
		met:     met,
		inj:     inj,
	}
	if err := d.recover(); err != nil {
		return nil, err
	}
	return d, nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// pathFor maps a key to its entry file: dir/<aa>/<sha256(key) hex>.ent.
func (d *Disk) pathFor(key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(d.dir, name[:2], name+".ent")
}

// recover rebuilds the index from the directory tree: remove temp
// leftovers and structurally invalid files, index the rest (oldest mtime
// first so the LRU order approximates pre-crash recency), then re-apply
// the budget.
func (d *Disk) recover() error {
	type found struct {
		de    diskEntry
		mtime time.Time
	}
	var all []found
	shards, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: recovery scan: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		shardDir := filepath.Join(d.dir, shard.Name())
		files, err := os.ReadDir(shardDir)
		if err != nil {
			continue
		}
		for _, f := range files {
			path := filepath.Join(shardDir, f.Name())
			if f.IsDir() {
				continue
			}
			if strings.HasPrefix(f.Name(), tmpPrefix) {
				os.Remove(path) // a write that never committed
				continue
			}
			hdr, key, mtime, ok := d.scanFile(path)
			if !ok {
				os.Remove(path) // torn, truncated, or foreign — never index it
				continue
			}
			all = append(all, found{
				de:    diskEntry{key: key, path: path, size: hdr.keyLen + hdr.metaLen + hdr.dataLen},
				mtime: mtime,
			})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mtime.Before(all[j].mtime) })
	for i := range all {
		de := all[i].de
		if _, dup := d.entries[de.key]; dup {
			// Two files claiming one key (should be impossible given the
			// hashed filename; defensive): keep the newer.
			d.removeLocked(d.entries[de.key])
		}
		d.entries[de.key] = d.ll.PushFront(&de)
		d.bytes += de.size
	}
	for d.bytes > d.budget && d.ll.Len() > 1 {
		d.evictOldestLocked()
	}
	return nil
}

// scanFile validates one candidate entry file structurally: magic, length
// bounds, and that the file size matches the header exactly. It reads only
// the header and key — data verification is deferred to Get, which always
// re-checksums. Returns ok=false for anything that should be deleted.
func (d *Disk) scanFile(path string) (entryHeader, string, time.Time, bool) {
	f, err := os.Open(path)
	if err != nil {
		return entryHeader{}, "", time.Time{}, false
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return entryHeader{}, "", time.Time{}, false
	}
	buf := make([]byte, headerLen+maxKeyLen)
	n, _ := f.Read(buf)
	hdr, err := parseHeader(buf[:n])
	if err != nil {
		return entryHeader{}, "", time.Time{}, false
	}
	if st.Size() != hdr.fileSize() || int64(n) < headerLen+hdr.keyLen {
		return entryHeader{}, "", time.Time{}, false
	}
	key := string(buf[headerLen : headerLen+hdr.keyLen])
	return hdr, key, st.ModTime(), true
}

// Get reads and verifies the entry for key. The file read and checksum run
// outside the index lock; a verification failure deletes the file and the
// index entry (if still current) and reports a miss.
func (d *Disk) Get(key string) (*Entry, bool) {
	d.mu.Lock()
	el, ok := d.entries[key]
	if !ok {
		d.mu.Unlock()
		d.misses.Add(1)
		return nil, false
	}
	de := el.Value.(*diskEntry)
	d.ll.MoveToFront(el)
	path := de.path
	d.mu.Unlock()

	b, err := os.ReadFile(path)
	if err != nil {
		// Raced with an eviction, or the file vanished underneath us:
		// account it and drop the index entry if it still points here.
		d.dropIfCurrent(key, el)
		d.errs.Add(1)
		d.misses.Add(1)
		return nil, false
	}
	if d.inj.Roll(chaos.DiskBitFlip) && len(b) > headerLen {
		bit := d.inj.Intn((len(b) - headerLen) * 8)
		b[headerLen+bit/8] ^= 1 << (bit % 8)
	}
	start := time.Now()
	e, err := DecodeEntry(b)
	d.met.Verify.Observe(time.Since(start).Seconds())
	if err != nil || e.Key != key {
		// Corrupt on disk (or a hash-collision impostor): delete the file
		// so it cannot fail again, then miss.
		os.Remove(path)
		d.dropIfCurrent(key, el)
		d.corrupt.Add(1)
		d.misses.Add(1)
		return nil, false
	}
	// Refresh the file's mtime so eviction order survives restarts.
	now := time.Now()
	os.Chtimes(path, now, now)
	d.hits.Add(1)
	return e, true
}

// dropIfCurrent removes key's index entry iff it is still the element the
// caller snapshotted (identity re-check, mirroring Memory.Get).
func (d *Disk) dropIfCurrent(key string, el *list.Element) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur, ok := d.entries[key]; ok && cur == el {
		d.removeLocked(el)
	}
}

// Put persists the entry: encode, write to a temp file in the target
// fanout directory, fsync, rename into place, then index it and enforce
// the budget. A failed write is counted and returned — callers with a
// memory tier above treat it as non-fatal (the entry just is not durable).
func (d *Disk) Put(e *Entry) error {
	d.mu.Lock()
	if el, ok := d.entries[e.Key]; ok {
		d.ll.MoveToFront(el)
		d.mu.Unlock()
		return nil
	}
	d.mu.Unlock()

	path := d.pathFor(e.Key)
	buf := EncodeEntry(e)
	if d.inj.Roll(chaos.DiskENOSPC) {
		d.errs.Add(1)
		return fmt.Errorf("store: writing %s: %w", filepath.Base(path), errNoSpace)
	}
	if d.inj.Roll(chaos.DiskTornWrite) {
		// Model a crash that bypassed the rename protocol: a truncated
		// file under the final name. It still gets indexed (the crashed
		// writer believed it committed) — the read path must catch it.
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			os.WriteFile(path, buf[:len(buf)/2], 0o644)
		}
		d.index(e)
		return nil
	}
	if err := d.writeAtomic(path, buf); err != nil {
		d.errs.Add(1)
		return err
	}
	d.index(e)
	return nil
}

// errNoSpace is the injected ENOSPC payload (a distinct sentinel so tests
// can tell injected write failures from real ones).
var errNoSpace = fmt.Errorf("no space left on device (chaos)")

// writeAtomic is the commit protocol: temp file in the same directory,
// write, fsync, rename. The rename is atomic on POSIX filesystems, so a
// reader (or a recovery scan) sees either the whole entry or nothing.
func (d *Disk) writeAtomic(path string, buf []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// CreateTemp gives each concurrent writer of the same key its own temp
	// file; last rename wins, and the bytes are identical by content
	// addressing anyway.
	f, err := os.CreateTemp(dir, tmpPrefix+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	// Best-effort directory sync so the rename itself is durable; some
	// filesystems reject fsync on directories, which is fine to ignore.
	if df, err := os.Open(dir); err == nil {
		df.Sync()
		df.Close()
	}
	return nil
}

// index records a committed file and enforces the byte budget.
func (d *Disk) index(e *Entry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if el, dup := d.entries[e.Key]; dup {
		d.ll.MoveToFront(el)
		return
	}
	de := &diskEntry{key: e.Key, path: d.pathFor(e.Key), size: e.size()}
	d.entries[e.Key] = d.ll.PushFront(de)
	d.bytes += de.size
	for d.bytes > d.budget && d.ll.Len() > 1 {
		d.evictOldestLocked()
	}
}

// Delete removes key's entry and file if present.
func (d *Disk) Delete(key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if el, ok := d.entries[key]; ok {
		os.Remove(el.Value.(*diskEntry).path)
		d.removeLocked(el)
	}
}

func (d *Disk) evictOldestLocked() {
	el := d.ll.Back()
	if el == nil {
		return
	}
	os.Remove(el.Value.(*diskEntry).path)
	d.removeLocked(el)
	d.evictions.Add(1)
}

func (d *Disk) removeLocked(el *list.Element) {
	de := el.Value.(*diskEntry)
	d.ll.Remove(el)
	delete(d.entries, de.key)
	d.bytes -= de.size
}

// Len is the indexed entry count.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ll.Len()
}

// Bytes is the indexed payload footprint.
func (d *Disk) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}

// Stats snapshots the store's counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	entries, bytes := d.ll.Len(), d.bytes
	d.mu.Unlock()
	return Stats{
		Hits:             d.hits.Load(),
		Misses:           d.misses.Load(),
		Evictions:        d.evictions.Load(),
		CorruptEvictions: d.corrupt.Load(),
		Errors:           d.errs.Load(),
		Entries:          entries,
		Bytes:            bytes,
		Budget:           d.budget,
	}
}
