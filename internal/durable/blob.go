// Package durable implements the bottom leg of the tmem demotion chain:
// a write-ahead log plus periodic slab snapshots, streamed to a pluggable
// blob store, with crash-recovery replay on boot (the lightningstream
// LMDB→S3 shape adapted to tmem pages). Persistent-pool mutations are
// journaled as checksummed records in segmented log files; compaction
// folds the live pages into snapshot slabs and prunes the log. Recovery
// loads the newest complete snapshot and replays the WAL tail, tolerating
// a torn final record.
//
// The journal keeps no page in memory. Every live page's bytes sit in
// exactly one framed record on the blob store — in a WAL segment or in a
// slab of the newest snapshot — and the Log holds an index saying where:
// 16 bytes a page. Whoever needs the bytes (a compaction, recovery, the
// rare Get the RAM tiers miss) reads the record back and checks its CRC.
//
// The package exposes three integration surfaces:
//
//   - Log: the journal itself — page index, WAL, snapshots, recovery.
//   - Tier: a tmem.Tier over a Log, the simulator's demotion leg
//     (RAM → compressed RAM → peer RAM → durable blob).
//   - Store: a write-through wrapper around a *tmem.Backend implementing
//     the kvstore server surface, the smartmem-kvd integration — every
//     successful persistent put is journaled regardless of which RAM tier
//     absorbed it, so a SIGKILL loses nothing.
package durable

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
)

// BlobStore is the pluggable persistence backend. The method set is
// S3-shaped (whole-object Put/Get/List/Delete over flat string keys with
// "/" separators, Open for ranged reads — S3's ranged GET, Link — S3's
// server-side copy) so a real object store drops in later; Append is the
// one extension WAL segments need — an S3 backend would buffer and
// multipart-upload on Sync, the local backends append in place.
//
// Implementations must be safe for concurrent use. Put must be atomic:
// a reader never observes a half-written blob.
type BlobStore interface {
	// Put atomically creates or replaces a whole blob. It must not retain
	// data after returning: the snapshot writer hands every slab the same
	// buffer (DirStore writes it out, MemStore copies it).
	Put(key string, data []byte) error
	// Get returns a blob's full contents. Absent blobs report an error
	// satisfying errors.Is(err, os.ErrNotExist).
	Get(key string) ([]byte, error)
	// List returns every key with the given prefix, in lexical order.
	List(prefix string) ([]string, error)
	// Delete removes a blob; deleting an absent blob is not an error.
	Delete(key string) error
	// Append opens a blob for appending, creating it if absent.
	Append(key string) (Appender, error)
	// Open returns a handle for ranged reads of one blob, the way the
	// journal reads a page back: one Open per blob, many ReadAt calls.
	// The handle is safe for concurrent use and its reads see every byte
	// an Appender.Write on the same blob has returned for, synced or not.
	// Absent blobs report an error satisfying errors.Is(err,
	// os.ErrNotExist), from Open or from the first ReadAt.
	Open(key string) (BlobReader, error)
	// Link makes dst a second name for the bytes src holds, replacing dst
	// if present, without copying them where the store can avoid it — the
	// way a compaction carries a sealed blob into a snapshot whole. The
	// two names are independent from then on: deleting src leaves dst,
	// and dst is as durable as a Put of the same bytes. Neither is written
	// again; src must be a blob no Appender still writes.
	Link(src, dst string) error
}

// BlobReader is an open blob handle for ranged reads.
type BlobReader interface {
	io.ReaderAt
	io.Closer
}

// Appender is an open, append-only blob handle. Sync makes everything
// written so far durable against machine crash; Close releases the handle
// without an implied sync.
type Appender interface {
	io.Writer
	Sync() error
	Close() error
}

// --- local directory backend ---

// DirStore is the local-filesystem BlobStore: each key is a file under a
// root directory. Put goes through a temp file + rename so it is atomic on
// POSIX filesystems. Appenders write straight through an *os.File with no
// user-space buffering, so every record handed to Write has reached the
// kernel before the call returns — a SIGKILL'd process loses at most the
// record being written, which is exactly the torn tail recovery tolerates.
// Sync (fsync) is only needed to survive machine crashes.
type DirStore struct {
	root string
}

// NewDirStore creates (if needed) and opens a directory-backed store.
func NewDirStore(root string) (*DirStore, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("durable: blob dir: %w", err)
	}
	return &DirStore{root: root}, nil
}

// Root returns the store's root directory.
func (d *DirStore) Root() string { return d.root }

// path validates a blob key and maps it to a filesystem path. Keys are
// flat slash-separated names produced by this package; anything that
// could escape the root is rejected outright.
func (d *DirStore) path(key string) (string, error) {
	if key == "" || strings.HasPrefix(key, "/") || strings.Contains(key, "..") {
		return "", fmt.Errorf("durable: invalid blob key %q", key)
	}
	return filepath.Join(d.root, filepath.FromSlash(key)), nil
}

// inDir runs create, which makes a file in dir, once dir exists. A Delete
// that empties a directory removes it, so a racing one can make create
// fail with ErrNotExist after the MkdirAll; create then runs once more.
func inDir(dir string, create func() error) error {
	for retry := true; ; retry = false {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		err := create()
		if !retry || !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
}

func (d *DirStore) Put(key string, data []byte) error {
	p, err := d.path(key)
	if err != nil {
		return err
	}
	dir := filepath.Dir(p)
	var tmp *os.File
	if err := inDir(dir, func() (err error) {
		tmp, err = os.CreateTemp(dir, ".tmp-*")
		return err
	}); err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func (d *DirStore) Get(key string) ([]byte, error) {
	p, err := d.path(key)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(p)
}

// List walks only the directory the prefix names up to its last '/' (the
// whole root for a prefix without one), so listing one namespace does not
// pay for the files of the others.
func (d *DirStore) List(prefix string) ([]string, error) {
	top := d.root
	if i := strings.LastIndexByte(prefix, '/'); i > 0 {
		if p, err := d.path(prefix[:i]); err == nil { // else filter the whole root
			top = p
		}
	}
	var out []string
	err := filepath.WalkDir(top, func(p string, e os.DirEntry, err error) error {
		if err != nil {
			if p == top && top != d.root && (errors.Is(err, fs.ErrNotExist) || errors.Is(err, syscall.ENOTDIR)) {
				return filepath.SkipAll // nothing stored under the prefix
			}
			if p != top && errors.Is(err, fs.ErrNotExist) {
				return nil // a directory a Delete emptied and removed mid-walk
			}
			return err
		}
		if e.IsDir() {
			return nil
		}
		rel, rerr := filepath.Rel(d.root, p)
		if rerr != nil {
			return rerr
		}
		key := filepath.ToSlash(rel)
		// Skip in-flight Put temp files.
		if strings.HasPrefix(filepath.Base(key), ".tmp-") {
			return nil
		}
		if strings.HasPrefix(key, prefix) {
			out = append(out, key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// Delete removes the key's file, and its directory when that leaves the
// directory empty (never the root): a store whose keys move on — a
// snapshot directory per compaction — does not keep a trail of empty
// directories for every List to walk.
func (d *DirStore) Delete(key string) error {
	p, err := d.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return err
	}
	if dir := filepath.Dir(p); dir != filepath.Clean(d.root) {
		err := syscall.Rmdir(dir)
		if err != nil && !errors.Is(err, syscall.ENOTEMPTY) && !errors.Is(err, syscall.EEXIST) && !errors.Is(err, syscall.ENOENT) {
			return &fs.PathError{Op: "rmdir", Path: dir, Err: err}
		}
	}
	return nil
}

func (d *DirStore) Append(key string) (Appender, error) {
	p, err := d.path(key)
	if err != nil {
		return nil, err
	}
	var f *os.File
	if err := inDir(filepath.Dir(p), func() (err error) {
		f, err = os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		return err
	}); err != nil {
		return nil, err
	}
	return f, nil
}

func (d *DirStore) Open(key string) (BlobReader, error) {
	p, err := d.path(key)
	if err != nil {
		return nil, err
	}
	return os.Open(p)
}

// Link hard-links dst to src after an fsync of src, so the bytes dst names
// are durable whatever the fsync policy src was written under (on a file
// already synced the fsync costs next to nothing). Like Put's rename, the
// new directory entry is not made durable by a directory fsync.
func (d *DirStore) Link(src, dst string) error {
	sp, err := d.path(src)
	if err != nil {
		return err
	}
	dp, err := d.path(dst)
	if err != nil {
		return err
	}
	f, err := os.Open(sp)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Remove(dp); err != nil && !os.IsNotExist(err) {
		return err
	}
	return inDir(filepath.Dir(dp), func() error { return os.Link(sp, dp) })
}

// --- in-memory backend ---

// MemStore is the in-memory BlobStore: the deterministic simulator
// backend and the unit-test crash double. Appended bytes are visible in
// the map as soon as Write returns, so "kill the process and reopen the
// store" is modeled by simply discarding the Log and opening a new one
// over the same MemStore.
type MemStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: make(map[string][]byte)}
}

func (m *MemStore) Put(key string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blobs[key] = append([]byte(nil), data...)
	return nil
}

func (m *MemStore) Get(key string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[key]
	if !ok {
		return nil, fmt.Errorf("durable: blob %q: %w", key, os.ErrNotExist)
	}
	return append([]byte(nil), b...), nil
}

func (m *MemStore) List(prefix string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for k := range m.blobs {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (m *MemStore) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.blobs, key)
	return nil
}

func (m *MemStore) Append(key string) (Appender, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.blobs[key]; !ok {
		m.blobs[key] = nil
	}
	return &memAppender{store: m, key: key}, nil
}

func (m *MemStore) Open(key string) (BlobReader, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.blobs[key]; !ok {
		return nil, fmt.Errorf("durable: blob %q: %w", key, os.ErrNotExist)
	}
	return memReader{store: m, key: key}, nil
}

// Link shares src's bytes under dst, capped at their length so that an
// append to either name never writes where the other can see it.
func (m *MemStore) Link(src, dst string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[src]
	if !ok {
		return fmt.Errorf("durable: blob %q: %w", src, os.ErrNotExist)
	}
	m.blobs[dst] = b[:len(b):len(b)]
	return nil
}

// memReader copies ranges out of the store's map, so it sees appends (and
// a Delete) made after it was opened.
type memReader struct {
	store *MemStore
	key   string
}

func (r memReader) ReadAt(p []byte, off int64) (int, error) {
	r.store.mu.Lock()
	defer r.store.mu.Unlock()
	b, ok := r.store.blobs[r.key]
	if !ok {
		return 0, fmt.Errorf("durable: blob %q: %w", r.key, os.ErrNotExist)
	}
	if off < 0 || off > int64(len(b)) {
		return 0, io.EOF
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (memReader) Close() error { return nil }

// Corrupt replaces a blob's bytes in place — the unit-test hook for
// simulating torn tails and bit rot without reaching into internals.
func (m *MemStore) Corrupt(key string, f func([]byte) []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[key]
	if !ok {
		return fmt.Errorf("durable: blob %q: %w", key, os.ErrNotExist)
	}
	m.blobs[key] = f(append([]byte(nil), b...))
	return nil
}

type memAppender struct {
	store *MemStore
	key   string
}

func (a *memAppender) Write(p []byte) (int, error) {
	a.store.mu.Lock()
	defer a.store.mu.Unlock()
	a.store.blobs[a.key] = append(a.store.blobs[a.key], p...)
	return len(p), nil
}

func (a *memAppender) Sync() error  { return nil }
func (a *memAppender) Close() error { return nil }

var (
	_ BlobStore = (*DirStore)(nil)
	_ BlobStore = (*MemStore)(nil)
)
