package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// On-disk layout (documented in SERVICE.md, stable for the sharding
// work to build against):
//
//	<dir>/<key>.res       one complete entry (header + payload)
//	<dir>/<key>.<n>.tmp   an in-progress write; swept at Open
//	<dir>/<key>.corrupt   a quarantined entry, kept for inspection
//
// An entry file is a four-line text header followed by the raw
// payload:
//
//	montblanc-store v1\n
//	sha256 <64 hex digits of the payload's SHA-256>\n
//	bytes <decimal payload length>\n
//	\n
//	<payload>
//
// The header is versioned so the format can evolve; anything that is
// not byte-for-byte a well-formed v1 entry whose length and checksum
// both match is quarantined on read, never returned.
const (
	headerMagic   = "montblanc-store v1"
	resSuffix     = ".res"
	tmpSuffix     = ".tmp"
	corruptSuffix = ".corrupt"
	// maxKeyLen bounds key length; cache keys are 64 hex chars, so
	// this is generous without letting a caller build silly paths.
	maxKeyLen = 128
)

// Stats is the store's observability surface, rendered into the
// service's /metrics "store" section. Counters are monotonic over the
// process lifetime; the two *_on_disk fields are gauges.
// QuarantinedTotal starts at the number of *.corrupt files found at
// Open, so operators see rot that predates this process.
type Stats struct {
	DiskHits         uint64 `json:"disk_hits"`
	DiskMisses       uint64 `json:"disk_misses"`
	DiskErrors       uint64 `json:"disk_errors"`
	QuarantinedTotal uint64 `json:"quarantined_total"`
	BytesOnDisk      int64  `json:"bytes_on_disk"`
	EntriesOnDisk    int64  `json:"entries_on_disk"`
}

// Store is a disk-backed content-addressed blob store: one file per
// key, written with temp-file + fsync + atomic rename, verified by
// checksum on every read. It assumes one process owns the directory
// (the service holds it for the process lifetime); the sharding
// follow-on will revisit that.
type Store struct {
	fs  FS
	dir string
	// maxBytes bounds payload+header bytes on disk (<= 0 unlimited);
	// oldest entries are pruned after a Put pushes past it.
	maxBytes int64

	mu    sync.Mutex
	sizes map[string]int64 // key -> size of its .res file
	bytes int64
	seq   uint64 // temp-name uniquifier

	hits, misses, errs, quarantined uint64
}

// Open readies dir as a store: creates it, sweeps temp files left by
// a crashed writer, and indexes the surviving entries. Corrupt entries
// are NOT verified here — verification happens on read, where the
// checksum is needed anyway and a torn entry can still be recomputed.
func Open(fsys FS, dir string, maxBytes int64) (*Store, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", dir, err)
	}
	s := &Store{fs: fsys, dir: dir, maxBytes: maxBytes, sizes: make(map[string]int64)}
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name, tmpSuffix):
			// A writer died mid-Put. The entry it was replacing (if
			// any) is intact under its final name; the leftover is
			// noise.
			if err := fsys.Remove(filepath.Join(dir, e.Name)); err != nil {
				s.errs++
			}
		case strings.HasSuffix(e.Name, corruptSuffix):
			s.quarantined++
		case strings.HasSuffix(e.Name, resSuffix):
			key := strings.TrimSuffix(e.Name, resSuffix)
			s.sizes[key] = e.Size
			s.bytes += e.Size
		}
	}
	return s, nil
}

// validKey rejects keys that could escape the directory or collide
// with the store's own suffixes. Cache keys are lowercase hex, but the
// store accepts anything filename-shaped.
func validKey(key string) error {
	if key == "" || len(key) > maxKeyLen {
		return fmt.Errorf("store: invalid key length %d", len(key))
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return fmt.Errorf("store: invalid key byte %q at %d", c, i)
		}
	}
	return nil
}

// Get returns the payload stored under key, verifying the header and
// checksum. A torn, truncated or bit-rotted entry is quarantined —
// renamed *.corrupt for inspection — and reported as a miss; corrupt
// bytes are never returned.
func (s *Store) Get(key string) ([]byte, bool) {
	if validKey(key) != nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	path := filepath.Join(s.dir, key+resSuffix)
	blob, err := s.fs.ReadFile(path)
	if err != nil {
		s.misses++
		if !s.fs.IsNotExist(err) {
			s.errs++
		}
		return nil, false
	}
	payload, err := decodeEntry(blob)
	if err != nil {
		s.quarantineLocked(key)
		s.misses++
		return nil, false
	}
	s.hits++
	return payload, true
}

// quarantineLocked moves key's entry aside as *.corrupt (falling back
// to removal if even the rename fails) and drops it from the index.
// Callers hold s.mu.
func (s *Store) quarantineLocked(key string) {
	path := filepath.Join(s.dir, key+resSuffix)
	if err := s.fs.Rename(path, filepath.Join(s.dir, key+corruptSuffix)); err != nil {
		if rerr := s.fs.Remove(path); rerr != nil {
			// The entry is still there; the next read will detect it
			// again. Count the failure and move on.
			s.errs++
			return
		}
	}
	s.quarantined++
	if old, ok := s.sizes[key]; ok {
		s.bytes -= old
		delete(s.sizes, key)
	}
	// Best-effort: make the quarantine durable so the corrupt entry
	// cannot resurrect under its serving name after a crash.
	if err := s.fs.SyncDir(s.dir); err != nil {
		s.errs++
	}
}

// Put stores payload under key with the crash-safe protocol: write a
// temp file, fsync it, atomically rename it over the final name, then
// fsync the directory. A failure before the rename leaves any previous
// entry untouched; a crash between rename and directory fsync can at
// worst forget the new entry, which reads as a miss.
func (s *Store) Put(key string, payload []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	tmp := filepath.Join(s.dir, key+"."+strconv.FormatUint(s.seq, 10)+tmpSuffix)
	blob := encodeEntry(payload)

	f, err := s.fs.Create(tmp)
	if err != nil {
		s.errs++
		return fmt.Errorf("store: creating %s: %w", tmp, err)
	}
	_, werr := f.Write(blob)
	if werr == nil {
		werr = f.Sync() // the entry must be durable before it becomes visible
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = s.fs.Rename(tmp, filepath.Join(s.dir, key+resSuffix))
	}
	if werr != nil {
		_ = s.fs.Remove(tmp) // best-effort; Open sweeps stragglers
		s.errs++
		return fmt.Errorf("store: writing %s: %w", key, werr)
	}
	if old, ok := s.sizes[key]; ok {
		s.bytes -= old
	}
	s.sizes[key] = int64(len(blob))
	s.bytes += int64(len(blob))
	// A lost directory update only forgets the entry (a future miss),
	// so a SyncDir failure degrades durability, not integrity.
	if err := s.fs.SyncDir(s.dir); err != nil {
		s.errs++
	}
	s.pruneLocked(key)
	return nil
}

// pruneLocked evicts oldest-first while over the byte budget, never
// evicting the entry just written. Callers hold s.mu.
func (s *Store) pruneLocked(justWritten string) {
	if s.maxBytes <= 0 || s.bytes <= s.maxBytes {
		return
	}
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		s.errs++
		return
	}
	type victim struct {
		key  string
		size int64
		mod  int64
	}
	var vs []victim
	for _, e := range entries {
		if !strings.HasSuffix(e.Name, resSuffix) {
			continue
		}
		key := strings.TrimSuffix(e.Name, resSuffix)
		if key == justWritten {
			continue
		}
		vs = append(vs, victim{key: key, size: e.Size, mod: e.ModUnixNano})
	}
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].mod != vs[j].mod {
			return vs[i].mod < vs[j].mod
		}
		return vs[i].key < vs[j].key
	})
	for _, v := range vs {
		if s.bytes <= s.maxBytes {
			return
		}
		if err := s.fs.Remove(filepath.Join(s.dir, v.key+resSuffix)); err != nil {
			s.errs++
			return // avoid spinning on an undeletable file
		}
		if old, ok := s.sizes[v.key]; ok {
			s.bytes -= old
			delete(s.sizes, v.key)
		}
	}
}

// Stats returns a snapshot of the store's counters and gauges.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		DiskHits:         s.hits,
		DiskMisses:       s.misses,
		DiskErrors:       s.errs,
		QuarantinedTotal: s.quarantined,
		BytesOnDisk:      s.bytes,
		EntriesOnDisk:    int64(len(s.sizes)),
	}
}

// maxHeaderLen bounds the v1 header: magic, digest, the longest
// decimal length and the separators.
const maxHeaderLen = len(headerMagic) + len("\nsha256 ") + 2*sha256.Size + len("\nbytes ") + 20 + len("\n\n")

// appendHeader appends the one v1 header for a payload with the given
// SHA-256 digest and length: lower-case hex, plain decimal.
func appendHeader(dst []byte, sum [sha256.Size]byte, n int) []byte {
	dst = append(dst, headerMagic+"\nsha256 "...)
	dst = hex.AppendEncode(dst, sum[:])
	dst = append(dst, "\nbytes "...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, "\n\n"...)
}

// encodeEntry frames payload with the v1 header.
func encodeEntry(payload []byte) []byte {
	b := appendHeader(make([]byte, 0, maxHeaderLen+len(payload)), sha256.Sum256(payload), len(payload))
	return append(b, payload...)
}

// decodeEntry validates a v1 entry and returns its payload. The header
// (up to the first blank line) must be byte-for-byte the one
// encodeEntry writes for the payload that follows it, so any deviation
// — bad magic, a malformed or non-canonical header, a length or
// checksum mismatch — is an error; the caller quarantines.
func decodeEntry(blob []byte) ([]byte, error) {
	end := bytes.Index(blob, []byte("\n\n"))
	if end < 0 {
		return nil, fmt.Errorf("store: truncated header")
	}
	header, payload := blob[:end+2], blob[end+2:]
	var want [maxHeaderLen]byte
	if !bytes.Equal(header, appendHeader(want[:0], sha256.Sum256(payload), len(payload))) {
		return nil, fmt.Errorf("store: header does not match its %d-byte payload", len(payload))
	}
	return payload, nil
}
