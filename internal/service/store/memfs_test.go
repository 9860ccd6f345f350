package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"montblanc/internal/xrand"
)

// errNotExist is MemFS's "no such file". OS maps the real thing.
var errNotExist = errors.New("file does not exist")

// MemFS is an in-memory FS that models the durability semantics the
// store's crash-safety argument depends on:
//
//   - bytes written to a file are volatile until File.Sync returns;
//     Crash truncates every file to its synced prefix plus an
//     arbitrary (seeded) amount of the unsynced tail — a torn write;
//   - a Rename is volatile until SyncDir returns; Crash rolls each
//     unsynced rename back or forward by a seeded coin flip, the two
//     outcomes POSIX allows after losing the directory update.
//
// It exists for the chaos property suite.
type MemFS struct {
	mu    sync.Mutex
	clock int64 // logical mtime counter: deterministic ordering
	dirs  map[string]bool
	files map[string]*memFile
	// pending are renames not yet made durable by SyncDir, oldest
	// first. Each remembers what the destination held so a rollback
	// can restore it.
	pending []pendingRename
}

type memFile struct {
	data      []byte
	syncedLen int // prefix that survives a crash
	mod       int64
}

type pendingRename struct {
	dir      string
	oldPath  string
	newPath  string
	src      *memFile // the file that moved
	prevDst  *memFile // what newPath held before, nil if nothing
	hadPrev  bool
	srcWasAt string // oldPath, for rollback
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{dirs: map[string]bool{".": true, "/": true}, files: map[string]*memFile{}}
}

func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := filepath.Clean(dir)
	for d != "." && d != "/" {
		m.dirs[d] = true
		d = filepath.Dir(d)
	}
	return nil
}

func (m *MemFS) ReadDir(dir string) ([]EntryInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := filepath.Clean(dir)
	if !m.dirs[d] {
		return nil, fmt.Errorf("readdir %s: %w", dir, errNotExist)
	}
	var out []EntryInfo
	for p, f := range m.files {
		if filepath.Dir(p) == d {
			out = append(out, EntryInfo{Name: filepath.Base(p), Size: int64(len(f.data)), ModUnixNano: f.mod})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func (m *MemFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[filepath.Clean(path)]
	if !ok {
		return nil, fmt.Errorf("read %s: %w", path, errNotExist)
	}
	return append([]byte(nil), f.data...), nil
}

func (m *MemFS) Create(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := filepath.Clean(path)
	if !m.dirs[filepath.Dir(p)] {
		return nil, fmt.Errorf("create %s: parent %w", path, errNotExist)
	}
	m.clock++
	f := &memFile{mod: m.clock}
	m.files[p] = f
	return &memHandle{fs: m, f: f}, nil
}

func (m *MemFS) Rename(oldPath, newPath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	op, np := filepath.Clean(oldPath), filepath.Clean(newPath)
	src, ok := m.files[op]
	if !ok {
		return fmt.Errorf("rename %s: %w", oldPath, errNotExist)
	}
	prev, hadPrev := m.files[np]
	m.pending = append(m.pending, pendingRename{
		dir: filepath.Dir(np), oldPath: op, newPath: np,
		src: src, prevDst: prev, hadPrev: hadPrev, srcWasAt: op,
	})
	delete(m.files, op)
	m.clock++
	src.mod = m.clock
	m.files[np] = src
	return nil
}

func (m *MemFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := filepath.Clean(path)
	if _, ok := m.files[p]; !ok {
		return fmt.Errorf("remove %s: %w", path, errNotExist)
	}
	delete(m.files, p)
	return nil
}

func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := filepath.Clean(dir)
	kept := m.pending[:0]
	for _, pr := range m.pending {
		if pr.dir != d {
			kept = append(kept, pr)
		}
	}
	m.pending = kept
	return nil
}

func (m *MemFS) IsNotExist(err error) bool { return errors.Is(err, errNotExist) }

// Crash simulates losing power: every file truncates to its synced
// prefix plus a seeded share of the unsynced tail, and every rename
// not pinned by SyncDir rolls back or forward by a seeded coin —
// newest first, so cascades (A→B then B→C) unwind consistently. The
// MemFS remains usable afterwards, as a disk does after reboot.
func (m *MemFS) Crash(r *xrand.Rand) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := len(m.pending) - 1; i >= 0; i-- {
		pr := m.pending[i]
		if r.Intn(2) == 0 {
			continue // the rename made it to disk after all
		}
		// Roll back: the directory update was lost.
		if cur, ok := m.files[pr.newPath]; ok && cur == pr.src {
			delete(m.files, pr.newPath)
			if pr.hadPrev {
				m.files[pr.newPath] = pr.prevDst
			}
			m.files[pr.srcWasAt] = pr.src
		}
	}
	m.pending = nil
	for _, f := range m.files {
		unsynced := len(f.data) - f.syncedLen
		if unsynced > 0 {
			f.data = f.data[:f.syncedLen+r.Intn(unsynced+1)]
		}
		f.syncedLen = len(f.data) // whatever survived is now on disk
	}
}

// memHandle is an open MemFS file.
type memHandle struct {
	fs     *MemFS
	f      *memFile
	closed bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, errors.New("write to closed file")
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return errors.New("sync of closed file")
	}
	h.f.syncedLen = len(h.f.data)
	return nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}
