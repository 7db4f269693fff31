// Package artifact is an on-disk content-addressed result store: the
// persistence layer under the study engine's in-memory singleflight
// caches. Entries are keyed by the SHA-256 of everything that determines a
// result (device configuration, kernel feature vector, simulation options,
// and a code-version salt), so a second study run — or another process
// sharing the directory — skips re-simulation entirely, and any change to
// the simulator's semantics invalidates the whole store by construction
// (bump Version) rather than by deletion.
//
// The store is deliberately paranoid about its own contents: every entry
// carries a magic header, an explicit payload length, and an FNV-1a
// checksum, and anything that fails validation (truncated write, bit rot,
// schema drift) is deleted and reported as a miss — the caller recomputes,
// never crashes, and never sees stale bytes. Writes go through a temp file
// and an atomic rename, cross-process mutation is serialized by a lock
// file, and the store evicts least-recently-used entries (by file mtime,
// refreshed on hit) once it grows past its size bound.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Version is the store's format-and-semantics salt. Callers mix it into
// every key (see Key), so bumping it — on an entry-format change or any
// simulator-semantics change — orphans all previous entries instead of
// letting them decode into wrong results. Orphans age out via LRU.
const Version = "pka-artifact-v1"

// DefaultMaxBytes bounds the store's payload footprint when Options leaves
// MaxBytes zero: 256 MiB holds ≈ 5 M kernel outcomes at 49 bytes an entry.
const DefaultMaxBytes = 256 << 20

// entry layout: magic | uint32 payload length | payload | uint64 FNV-1a.
var entryMagic = [4]byte{'P', 'K', 'A', 'A'}

const entryOverhead = 4 + 4 + 8

// maxPayload rejects absurd length fields before allocating.
const maxPayload = 64 << 20

// Options configures Open.
type Options struct {
	// MaxBytes bounds the total size of stored entries (file sizes, not
	// disk blocks). Zero applies DefaultMaxBytes; eviction runs on Put.
	MaxBytes int64
}

// Stats is a snapshot of the store's counters since Open.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Writes    uint64 `json:"writes"`
	Evictions uint64 `json:"evictions"`
	// Corrupt counts entries that failed validation: deleted by Get (bad
	// magic, short read, checksum mismatch) or Rejected. Each is also a miss.
	Corrupt   uint64 `json:"corrupt"`
	SizeBytes int64  `json:"size_bytes"`
	Entries   int64  `json:"entries"`
}

// Store is a content-addressed cache directory. All methods are safe for
// concurrent use; a nil *Store is inert (Get always misses, Put drops).
type Store struct {
	*directory
	hits, misses, writes, evictions, corrupt atomic.Uint64
}

// directory is what every View of one opened store shares.
type directory struct {
	dir      string
	maxBytes int64
	lock     *dirLock

	mu      sync.Mutex
	size    int64 // sum of entry file sizes, best-effort
	entries int64
}

// Open creates (if needed) and opens a store rooted at dir. The directory
// is scanned once to initialize size accounting; concurrent stores on the
// same directory coordinate mutation through dir/.lock.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	lock, err := newDirLock(filepath.Join(dir, ".lock"))
	if err != nil {
		return nil, fmt.Errorf("artifact: lock file: %w", err)
	}
	s := &Store{directory: &directory{dir: dir, maxBytes: opts.MaxBytes, lock: lock}}
	if s.maxBytes <= 0 {
		s.maxBytes = DefaultMaxBytes
	}
	size, n := s.scan()
	s.size, s.entries = size, n
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// View returns a second handle on s — same directory, lock, size bound and
// accounting — whose traffic counters start at zero, so one kind of entry
// can be counted apart from the rest (Exec keeps whole selections apart
// from kernel outcomes). Close only the store Open returned.
func (s *Store) View() *Store {
	if s == nil {
		return nil
	}
	return &Store{directory: s.directory}
}

// Close releases the store's lock file handle.
func (s *Store) Close() error {
	if s == nil || s.lock == nil {
		return nil
	}
	return s.lock.close()
}

// Key hashes the given byte sections into a store key with Version mixed
// in. Sections are length-prefixed before hashing so ("ab","c") and
// ("a","bc") cannot collide.
func Key(sections ...[]byte) string {
	h := NewKeyHash()
	for _, sec := range sections {
		h.Section(sec)
	}
	return h.Sum()
}

// KeyHash is Key fed one section at a time, for keys over more sections
// than a caller wants to hold at once; the bytes hashed are Key's.
type KeyHash struct{ h hash.Hash }

// NewKeyHash starts a key with Version mixed in.
func NewKeyHash() KeyHash {
	h := sha256.New()
	h.Write([]byte(Version))
	return KeyHash{h}
}

// Section hashes one length-prefixed section; sec may be reused afterwards.
func (k KeyHash) Section(sec []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(sec)))
	k.h.Write(n[:])
	k.h.Write(sec)
}

// Sum returns the key of the sections hashed so far.
func (k KeyHash) Sum() string { return hex.EncodeToString(k.h.Sum(nil)) }

// Get returns the payload stored under key, refreshing its LRU recency.
// Any validation failure deletes the entry and reports a miss.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	path, err := s.path(key)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, err := decodeEntry(raw)
	if err != nil {
		// Truncated, corrupted, or foreign bytes: drop the entry so the
		// recomputed result can replace it, and never return stale data.
		s.corrupt.Add(1)
		s.misses.Add(1)
		s.removeEntry(path, int64(len(raw)))
		return nil, false
	}
	s.hits.Add(1)
	touch(path) // best-effort LRU recency bump
	return payload, true
}

// Reject recounts the hit a Get just scored as a corrupt miss: the payload
// passed the store's checksum but not the caller's decoder (schema drift
// without a salt bump). The caller recomputes and its Put overwrites it.
func (s *Store) Reject() {
	if s != nil {
		s.hits.Add(^uint64(0))
		s.misses.Add(1)
		s.corrupt.Add(1)
	}
}

// Put stores payload under key (last write wins) and evicts
// least-recently-used entries if the store grew past its bound. Failures
// are returned but safe to ignore: the store is a cache, so a failed Put
// only costs a future recompute.
func (s *Store) Put(key string, payload []byte) error {
	if s == nil {
		return nil
	}
	path, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	raw := encodeEntry(payload)

	needEvict, err := s.write(path, raw)
	if err != nil {
		return err
	}
	if needEvict {
		s.evict()
	}
	return nil
}

// write lands one framed entry under the cross-process lock and reports
// whether the store outgrew its bound.
func (s *Store) write(path string, raw []byte) (needEvict bool, err error) {
	s.lock.exclusive()
	defer s.lock.release()

	prev, _ := os.Stat(path)
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return false, fmt.Errorf("artifact: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return false, fmt.Errorf("artifact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return false, fmt.Errorf("artifact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return false, fmt.Errorf("artifact: %w", err)
	}
	s.writes.Add(1)
	s.mu.Lock()
	s.size += int64(len(raw))
	s.entries++
	if prev != nil {
		s.size -= prev.Size()
		s.entries--
	}
	needEvict = s.size > s.maxBytes
	s.mu.Unlock()
	return needEvict, nil
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	size, entries := s.size, s.entries
	s.mu.Unlock()
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Writes:    s.writes.Load(),
		Evictions: s.evictions.Load(),
		Corrupt:   s.corrupt.Load(),
		SizeBytes: size,
		Entries:   entries,
	}
}

// CheckKey reports whether key is a valid store key: 4 to 128 lowercase
// hex characters, so a hostile key cannot escape the store directory.
func CheckKey(key string) error {
	if len(key) < 4 || len(key) > 128 {
		return fmt.Errorf("artifact: bad key length %d", len(key))
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("artifact: key %q is not lowercase hex", key)
		}
	}
	return nil
}

// path maps a valid key to its sharded file path.
func (s *Store) path(key string) (string, error) {
	if err := CheckKey(key); err != nil {
		return "", err
	}
	return filepath.Join(s.dir, key[:2], key+".bin"), nil
}

// removeEntry deletes one entry file and rolls the accounting back.
func (s *Store) removeEntry(path string, size int64) {
	if os.Remove(path) == nil {
		s.mu.Lock()
		s.size -= size
		s.entries--
		s.mu.Unlock()
	}
}

// evict deletes least-recently-used entries (oldest mtime first) until the
// store fits its bound again. The directory is rescanned under the
// cross-process lock so two stores sharing a directory agree on what
// exists before either deletes anything.
func (s *Store) evict() {
	s.lock.exclusive()
	defer s.lock.release()

	type ent struct {
		path  string
		size  int64
		mtime int64
	}
	var ents []ent
	var total int64
	shards, _ := os.ReadDir(s.dir)
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, _ := os.ReadDir(filepath.Join(s.dir, sh.Name()))
		for _, f := range files {
			info, err := f.Info()
			if err != nil || !info.Mode().IsRegular() || filepath.Ext(f.Name()) != ".bin" {
				continue
			}
			ents = append(ents, ent{
				path:  filepath.Join(s.dir, sh.Name(), f.Name()),
				size:  info.Size(),
				mtime: info.ModTime().UnixNano(),
			})
			total += info.Size()
		}
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].mtime != ents[j].mtime {
			return ents[i].mtime < ents[j].mtime
		}
		return ents[i].path < ents[j].path
	})
	// Evict to 90% of the bound so Put bursts don't re-trigger immediately.
	target := s.maxBytes - s.maxBytes/10
	removed := int64(0)
	remaining := int64(len(ents))
	for _, e := range ents {
		if total <= target {
			break
		}
		if os.Remove(e.path) == nil {
			total -= e.size
			removed++
			remaining--
			s.evictions.Add(1)
		}
	}
	s.mu.Lock()
	s.size = total
	s.entries = remaining
	s.mu.Unlock()
}

// scan walks the store once at Open to initialize size accounting.
func (s *Store) scan() (size, entries int64) {
	shards, _ := os.ReadDir(s.dir)
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, _ := os.ReadDir(filepath.Join(s.dir, sh.Name()))
		for _, f := range files {
			if info, err := f.Info(); err == nil && info.Mode().IsRegular() && filepath.Ext(f.Name()) == ".bin" {
				size += info.Size()
				entries++
			}
		}
	}
	return size, entries
}

// encodeEntry frames a payload: magic | len | payload | FNV-1a(payload).
func encodeEntry(payload []byte) []byte {
	raw := make([]byte, 0, entryOverhead+len(payload))
	raw = append(raw, entryMagic[:]...)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(payload)))
	raw = append(raw, n[:]...)
	raw = append(raw, payload...)
	h := fnv.New64a()
	h.Write(payload)
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], h.Sum64())
	return append(raw, sum[:]...)
}

// decodeEntry validates a framed entry and returns its payload.
func decodeEntry(raw []byte) ([]byte, error) {
	if len(raw) < entryOverhead {
		return nil, fmt.Errorf("artifact: entry truncated at %d bytes", len(raw))
	}
	if [4]byte(raw[:4]) != entryMagic {
		return nil, fmt.Errorf("artifact: bad entry magic")
	}
	n := binary.LittleEndian.Uint32(raw[4:8])
	if n > maxPayload || int(entryOverhead+n) != len(raw) {
		return nil, fmt.Errorf("artifact: entry length %d does not match file size %d", n, len(raw))
	}
	payload := raw[8 : 8+n]
	h := fnv.New64a()
	h.Write(payload)
	if got, want := h.Sum64(), binary.LittleEndian.Uint64(raw[8+n:]); got != want {
		return nil, fmt.Errorf("artifact: checksum mismatch")
	}
	return payload, nil
}

// touch refreshes an entry's mtime so eviction treats it as recently used.
func touch(path string) {
	now := time.Now()
	_ = os.Chtimes(path, now, now)
}
