package artifact

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundtrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	key := Key([]byte("device"), []byte("kernel"), []byte("task"))
	payload := []byte("hello, cached world")
	if _, ok := s.Get(key); ok {
		t.Fatal("hit before any Put")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want the stored payload", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 write / 1 entry", st)
	}

	// A second store on the same directory sees the entry (persistence).
	s2 := open(t, s.Dir(), Options{})
	if got, ok := s2.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatal("entry not visible to a second store on the same dir")
	}
}

func TestKeySectionsAreUnambiguous(t *testing.T) {
	if Key([]byte("ab"), []byte("c")) == Key([]byte("a"), []byte("bc")) {
		t.Fatal("section boundaries do not affect the key")
	}
	if Key([]byte("x")) == Key([]byte("y")) {
		t.Fatal("distinct content hashed to one key")
	}
	if Key([]byte("x")) != Key([]byte("x")) {
		t.Fatal("key is not deterministic")
	}
}

// entryPath locates the single .bin file a one-entry store wrote.
func entryPath(t *testing.T, s *Store, key string) string {
	t.Helper()
	p, err := s.path(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCorruptEntriesRecompute: truncation, bit flips in the payload
// (checksum mismatch), bad magic, and garbage files must all read as
// misses, delete the bad entry, and leave the store usable.
func TestCorruptEntriesRecompute(t *testing.T) {
	payload := []byte("precious simulation outcome, 48 bytes or so....")
	corruptions := map[string]func([]byte) []byte{
		"truncated-header":  func(raw []byte) []byte { return raw[:3] },
		"truncated-payload": func(raw []byte) []byte { return raw[:len(raw)/2] },
		"checksum-flip": func(raw []byte) []byte {
			raw[10] ^= 0x40 // inside the payload: checksum mismatch
			return raw
		},
		"bad-magic": func(raw []byte) []byte {
			raw[0] = 'X'
			return raw
		},
		"garbage":      func([]byte) []byte { return []byte("not an entry at all") },
		"empty":        func([]byte) []byte { return nil },
		"grown-length": func(raw []byte) []byte { return append(raw, 0xEE) },
	}
	for name, mangle := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := open(t, t.TempDir(), Options{})
			key := Key([]byte(name))
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			p := entryPath(t, s, key)
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, mangle(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupt entry returned %q as a hit", got)
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatal("corrupt entry not deleted")
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("corrupt count %d, want 1", st.Corrupt)
			}
			// Recompute path: a fresh Put over the dead entry works.
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Fatal("store unusable after corruption recovery")
			}
		})
	}
}

// FuzzDecodeEntry: the entry decoder reads whatever a shared directory holds;
// whatever that is it must not panic, and whatever it accepts is exactly the
// frame encodeEntry writes for the payload it returned.
func FuzzDecodeEntry(f *testing.F) {
	good := encodeEntry([]byte("principal kernel"))
	f.Add(good)
	f.Add(encodeEntry(nil))
	f.Add(good[:len(good)-1])
	f.Add(good[:entryOverhead-1])
	f.Add(append(bytes.Clone(good), 0))
	grown := bytes.Clone(good)
	grown[4]++
	f.Add(grown)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, err := decodeEntry(raw)
		if err != nil {
			return
		}
		if got := encodeEntry(payload); !bytes.Equal(got, raw) {
			t.Fatalf("accepted %x, which frames as %x", raw, got)
		}
	})
}

// TestEvictionPastSizeBound: filling past MaxBytes evicts oldest-first and
// keeps the newest entries.
func TestEvictionPastSizeBound(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 1000)
	entrySize := int64(entryOverhead + len(payload))
	s := open(t, t.TempDir(), Options{MaxBytes: 5 * entrySize})

	keys := make([]string, 12)
	for i := range keys {
		keys[i] = Key([]byte(fmt.Sprintf("entry-%d", i)))
		if err := s.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes make LRU order unambiguous on coarse-grained
		// filesystem clocks.
		p, _ := s.path(keys[i])
		mt := time.Now().Add(time.Duration(i-len(keys)) * time.Second)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// One more Put triggers eviction down to 90% of the bound.
	last := Key([]byte("the-last-one"))
	if err := s.Put(last, payload); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite exceeding the size bound")
	}
	if st.SizeBytes > 5*entrySize {
		t.Fatalf("store still oversized: %d > %d", st.SizeBytes, 5*entrySize)
	}
	if _, ok := s.Get(keys[0]); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := s.Get(last); !ok {
		t.Fatal("newest entry was evicted")
	}
}

// TestConcurrentStores: two Stores on one directory (stand-ins for two
// processes) hammer overlapping keys; every Get must return either a miss
// or a correct payload, never torn bytes.
func TestConcurrentStores(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, Options{})
	b := open(t, dir, Options{})

	payloadFor := func(k int) []byte {
		return bytes.Repeat([]byte{byte(k)}, 100+k)
	}
	var wg sync.WaitGroup
	for _, s := range []*Store{a, b} {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				for k := 0; k < 8; k++ {
					key := Key([]byte{byte(k)})
					if got, ok := s.Get(key); ok && !bytes.Equal(got, payloadFor(k)) {
						t.Errorf("torn read for key %d: %d bytes", k, len(got))
						return
					}
					if err := s.Put(key, payloadFor(k)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for k := 0; k < 8; k++ {
		if got, ok := a.Get(Key([]byte{byte(k)})); !ok || !bytes.Equal(got, payloadFor(k)) {
			t.Fatalf("final state wrong for key %d", k)
		}
	}
}

// TestOpenRestoresAccounting: a reopened store knows its size and evicts
// correctly without any Puts in the new session.
func TestOpenRestoresAccounting(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte{1}, 500)
	s := open(t, dir, Options{})
	for i := 0; i < 4; i++ {
		if err := s.Put(Key([]byte{byte(i)}), payload); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Stats()
	s2 := open(t, dir, Options{})
	got := s2.Stats()
	if got.SizeBytes != want.SizeBytes || got.Entries != want.Entries {
		t.Fatalf("reopened accounting %+v, want size/entries from %+v", got, want)
	}
}

// TestNilStoreIsInert: the nil store misses and drops without panicking,
// so call sites never need to branch on cache configuration.
func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	if _, ok := s.Get(Key([]byte("x"))); ok {
		t.Fatal("nil store hit")
	}
	if err := s.Put(Key([]byte("x")), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatal("nil store has stats")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Dir() != "" {
		t.Fatal("nil store has a dir")
	}
}

func TestBadKeysRejected(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	for _, key := range []string{"", "ab", "../../../../etc/passwd", "ABCDEF", "zzzz", "ab/cd"} {
		if _, ok := s.Get(key); ok {
			t.Fatalf("bad key %q hit", key)
		}
		if err := s.Put(key, []byte("x")); err == nil {
			t.Fatalf("bad key %q accepted by Put", key)
		}
	}
}

// TestViewCountsApart: a view reads and writes the same entries and shares
// the size accounting, but its traffic lands in its own counters — and a
// Rejected hit recounts as a corrupt miss on the handle that scored it.
func TestViewCountsApart(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	v := s.View()
	key := Key([]byte("via the view"))
	if err := v.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || string(got) != "payload" {
		t.Fatalf("the store does not see the view's entry: %q, %v", got, ok)
	}
	if _, ok := v.Get(key); !ok {
		t.Fatal("the view does not see its own entry")
	}
	v.Reject()
	ss, vs := s.Stats(), v.Stats()
	if ss.Writes != 0 || ss.Hits != 1 || ss.Misses != 0 || ss.Corrupt != 0 {
		t.Errorf("store counters %+v, want one hit and nothing else", ss)
	}
	if vs.Writes != 1 || vs.Hits != 0 || vs.Misses != 1 || vs.Corrupt != 1 {
		t.Errorf("view counters %+v, want one write and one corrupt miss", vs)
	}
	if ss.Entries != 1 || vs.Entries != 1 || ss.SizeBytes != vs.SizeBytes || ss.SizeBytes == 0 {
		t.Errorf("size accounting is not shared: store %+v, view %+v", ss, vs)
	}
	var none *Store
	if none.View() != nil {
		t.Error("a nil store has a non-nil view")
	}
	none.Reject()
}
