package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"montblanc/internal/xrand"
)

func TestPutGetRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		fs   FS
		dir  string
	}{
		{"mem", NewMemFS(), "cache"},
		{"os", OS{}, filepath.Join(t.TempDir(), "cache")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(tc.fs, tc.dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := []byte("hello\x00binary\npayload")
			if err := st.Put("abc123", want); err != nil {
				t.Fatal(err)
			}
			got, ok := st.Get("abc123")
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("Get = %q, %v; want %q, true", got, ok, want)
			}
			if _, ok := st.Get("missing0"); ok {
				t.Fatal("Get of absent key reported a hit")
			}
			s := st.Stats()
			if s.DiskHits != 1 || s.DiskMisses != 1 || s.EntriesOnDisk != 1 {
				t.Fatalf("stats = %+v", s)
			}
			if s.BytesOnDisk <= int64(len(want)) {
				t.Fatalf("bytes_on_disk %d should exceed the raw payload (header rides along)", s.BytesOnDisk)
			}
		})
	}
}

// TestWarmRestart is the headline behavior: a new Store over the same
// directory serves the previous process's entries byte-identical.
func TestWarmRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	st1, err := Open(OS{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("survives the process")
	if err := st1.Put("deadbeef", want); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(OS{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st2.Get("deadbeef")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("after restart Get = %q, %v; want %q, true", got, ok, want)
	}
	s := st2.Stats()
	if s.EntriesOnDisk != 1 || s.DiskHits != 1 {
		t.Fatalf("stats after restart = %+v", s)
	}
}

// TestCorruptEntryQuarantined flips one byte on disk and asserts the
// entry is detected, quarantined as *.corrupt, and recomputable.
func TestCorruptEntryQuarantined(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	st, err := Open(OS{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("precious result bytes")
	if err := st.Put("cafe01", want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cafe01"+resSuffix)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-3] ^= 0x40 // rot a payload byte
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get("cafe01"); ok {
		t.Fatalf("corrupt entry served: %q", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "cafe01"+corruptSuffix)); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	s := st.Stats()
	if s.QuarantinedTotal != 1 || s.EntriesOnDisk != 0 {
		t.Fatalf("stats after quarantine = %+v", s)
	}
	// Recompute path: the key is free again.
	if err := st.Put("cafe01", want); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get("cafe01"); !ok || !bytes.Equal(got, want) {
		t.Fatal("recomputed entry not served")
	}
	// A restarted store counts the pre-existing quarantine file.
	st2, err := Open(OS{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := st2.Stats(); s.QuarantinedTotal != 1 {
		t.Fatalf("restart quarantined_total = %d, want 1", s.QuarantinedTotal)
	}
}

// TestTruncatedEntryQuarantined covers the torn-write shape a crash
// leaves behind when the rename happened but the data didn't all make
// it (only possible without the fsync barrier — the store must still
// detect it).
func TestTruncatedEntryQuarantined(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	st, err := Open(OS{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("feed42", []byte("a payload long enough to truncate meaningfully")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "feed42"+resSuffix)
	blob, _ := os.ReadFile(path)
	if err := os.WriteFile(path, blob[:len(blob)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("feed42"); ok {
		t.Fatal("truncated entry served")
	}
	if st.Stats().QuarantinedTotal != 1 {
		t.Fatal("truncated entry not quarantined")
	}
}

func TestOpenSweepsTempFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "abc.17"+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(OS{}, dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("leftover temp file not swept: %v", err)
	}
}

func TestDecodeEntryRejections(t *testing.T) {
	good := encodeEntry([]byte("payload"))
	cases := map[string][]byte{
		"empty":            nil,
		"bad magic":        []byte("montblanc-store v9\nsha256 00\nbytes 2\n\nhi"),
		"no header end":    []byte(headerMagic + "\nsha256 00"),
		"short blob":       good[:len(good)-2],
		"extra bytes":      append(append([]byte{}, good...), 'x'),
		"flipped payload":  flip(good, len(good)-1),
		"flipped checksum": flip(good, len(headerMagic)+10),
		"garbage":          []byte("not an entry at all"),
	}
	for name, blob := range cases {
		if _, err := decodeEntry(blob); err == nil {
			t.Errorf("%s: decodeEntry accepted", name)
		}
	}
	if p, err := decodeEntry(good); err != nil || string(p) != "payload" {
		t.Fatalf("good entry rejected: %v", err)
	}
	if p, err := decodeEntry(encodeEntry(nil)); err != nil || len(p) != 0 {
		t.Fatalf("empty payload should round-trip: %v", err)
	}
}

// FuzzStoreEntry checks the entry codec: no blob makes it panic, every
// payload round-trips, and decodeEntry accepts a blob only when it is
// exactly what encodeEntry writes for the payload it returns.
func FuzzStoreEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := decodeEntry(encodeEntry(data)); err != nil || !bytes.Equal(p, data) {
			t.Fatalf("payload %q does not round-trip: got %q, %v", data, p, err)
		}
		if p, err := decodeEntry(data); err == nil && !bytes.Equal(data, encodeEntry(p)) {
			t.Fatalf("accepted a non-canonical entry %q", data)
		}
	})
}

func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 1
	return c
}

func TestValidKey(t *testing.T) {
	for _, bad := range []string{"", ".", "..", "a/b", "../x", "a b", "k\x00", "a.res", string(make([]byte, maxKeyLen+1))} {
		if err := validKey(bad); err == nil {
			t.Errorf("validKey(%q) accepted", bad)
		}
	}
	for _, good := range []string{"a", "deadbeef", "ABC_-123"} {
		if err := validKey(good); err != nil {
			t.Errorf("validKey(%q) rejected: %v", good, err)
		}
	}
}

// TestPruneOldestFirst bounds the disk tier: pushing past maxBytes
// evicts oldest entries first and never the one just written.
func TestPruneOldestFirst(t *testing.T) {
	mem := NewMemFS()
	one := bytes.Repeat([]byte("x"), 100)
	entrySize := int64(len(encodeEntry(one)))
	st, err := Open(mem, "cache", 2*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"old0", "mid1", "new2"} {
		if err := st.Put(k, one); err != nil {
			t.Fatal(err)
		}
	}
	s := st.Stats()
	if s.EntriesOnDisk != 2 || s.BytesOnDisk != 2*entrySize {
		t.Fatalf("after prune stats = %+v, want 2 entries / %d bytes", s, 2*entrySize)
	}
	if _, ok := st.Get("old0"); ok {
		t.Fatal("oldest entry survived pruning")
	}
	if _, ok := st.Get("new2"); !ok {
		t.Fatal("just-written entry was pruned")
	}
}

// TestOverwriteAccounting re-puts a key with a different size and
// checks the byte gauge does not double-count.
func TestOverwriteAccounting(t *testing.T) {
	mem := NewMemFS()
	st, err := Open(mem, "cache", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k", []byte("short")); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("y"), 300)
	if err := st.Put("k", big); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.EntriesOnDisk != 1 || s.BytesOnDisk != int64(len(encodeEntry(big))) {
		t.Fatalf("overwrite stats = %+v", s)
	}
	got, ok := st.Get("k")
	if !ok || !bytes.Equal(got, big) {
		t.Fatal("overwrite did not replace the payload")
	}
}

// TestConcurrentPutGet hammers the store from many goroutines under
// -race: the mutex discipline, not throughput, is the subject.
func TestConcurrentPutGet(t *testing.T) {
	mem := NewMemFS()
	st, err := Open(mem, "cache", 0)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := xrand.New(uint64(g))
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key%d", r.Intn(16))
				if r.Intn(2) == 0 {
					p := []byte(fmt.Sprintf("%s payload", k))
					if err := st.Put(k, p); err != nil {
						t.Errorf("Put(%s): %v", k, err)
						return
					}
				} else if got, ok := st.Get(k); ok {
					if want := fmt.Sprintf("%s payload", k); string(got) != want {
						t.Errorf("Get(%s) = %q, want %q", k, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s := st.Stats(); s.EntriesOnDisk > 16 || s.BytesOnDisk < 0 {
		t.Fatalf("stats after storm = %+v", s)
	}
}
