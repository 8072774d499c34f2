package tmem

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Handle refers to a page's contents inside a PageStore.
type Handle int64

// NoHandle is the invalid handle sentinel.
const NoHandle Handle = -1

// PageStore abstracts how page *contents* are retained. Capacity accounting
// (frames, targets) is independent of the backend: one stored page always
// consumes one tmem frame, as in Xen. The backend choice controls the host
// memory actually spent holding the bytes:
//
//   - DataStore: full page copies — the faithful Xen behaviour, used by the
//     kvd daemon and data-integrity tests.
//   - MetaStore: presence only — used by the simulator, where page contents
//     are irrelevant and gigabytes of simulated tmem must not consume
//     gigabytes of real memory.
//
// Compressed tmem (zcache / Ex-tmem-style related work, paper §VI) is a
// tier, not a PageStore: see CompressedTier.
type PageStore interface {
	// PageSize returns the page size in bytes this store was built for.
	PageSize() int
	// Save stores a copy of data (nil means a zero page) and returns its
	// handle. len(data) must be <= PageSize.
	Save(data []byte) (Handle, error)
	// Load copies a previously saved page into dst (len >= PageSize).
	Load(h Handle, dst []byte) error
	// Drop releases the page behind h.
	Drop(h Handle) error
	// Footprint returns the approximate bytes of host memory retained.
	Footprint() int64
	// Count returns the number of live handles.
	Count() int
}

// --- DataStore ---

const framesPerChunk = 256 // page frames in one arena chunk

// arenaBytes counts the chunk bytes every DataStore holds, for tests.
var arenaBytes atomic.Int64

// DataStore keeps verbatim page copies, matching Xen's page-copy interface.
// It is MetaStore's handle table over a frame arena: handle h owns frame
// h%framesPerChunk of chunk h/framesPerChunk, so a dropped handle's frame
// is reused with the handle and a store cycling at a steady page count
// allocates nothing. Where allocChunk can, chunks are mapped outside the Go
// heap, so stored pages neither count toward the collector's heap goal nor
// outlive the store: a cleanup releases the arena once the store is
// unreachable (DESIGN.md §9).
type DataStore struct {
	MetaStore
	arena *frameArena
}

// frameArena holds a DataStore's chunks apart from the store, so that the
// store's cleanup can release them.
type frameArena struct{ chunks [][]byte }

// NewDataStore creates a store of full page copies.
func NewDataStore(pageSize int) *DataStore {
	s := &DataStore{MetaStore: *NewMetaStore(pageSize), arena: new(frameArena)}
	runtime.AddCleanup(s, (*frameArena).release, s.arena)
	return s
}

// release frees every chunk of the arena.
func (a *frameArena) release() {
	for _, c := range a.chunks {
		freeChunk(c)
		arenaBytes.Add(-int64(len(c)))
	}
}

// frame returns handle h's frame, adding a chunk when h is the first handle
// past the arena's end (MetaStore hands out new handles in order).
func (s *DataStore) frame(h Handle) []byte {
	c, off := int(h/framesPerChunk), int(h%framesPerChunk)*s.pageSize
	if c == len(s.arena.chunks) {
		s.arena.chunks = append(s.arena.chunks, allocChunk(framesPerChunk*s.pageSize))
		arenaBytes.Add(int64(framesPerChunk * s.pageSize))
	}
	return s.arena.chunks[c][off : off+s.pageSize]
}

// Save implements PageStore. The KeepAlive calls here and in Load keep the
// store, and so its arena, alive until the copy is done.
func (s *DataStore) Save(data []byte) (Handle, error) {
	h, err := s.MetaStore.Save(data)
	if err != nil {
		return NoHandle, err
	}
	f := s.frame(h)
	clear(f[copy(f, data):]) // a reused frame still holds its last page
	runtime.KeepAlive(s)
	return h, nil
}

// Load implements PageStore.
func (s *DataStore) Load(h Handle, dst []byte) error {
	if !s.known(h) || len(dst) < s.pageSize {
		return s.MetaStore.Load(h, dst) // the error
	}
	copy(dst, s.frame(h))
	runtime.KeepAlive(s)
	return nil
}

// Footprint implements PageStore: live page bytes.
func (s *DataStore) Footprint() int64 { return int64(s.Count()) * int64(s.pageSize) }

// --- MetaStore ---

// MetaStore records only page presence. Loads fill dst with zeros. It is
// the simulator's backend: what the policies observe (counts, targets,
// successes/failures) is identical to DataStore's behaviour.
//
// Handles index a slice of liveness flags and dropped handles are reused
// from a free list, so Save/Drop/Load are an index and a compare — no
// hashing — and a store cycling at a steady page count allocates nothing.
type MetaStore struct {
	pageSize int
	live     []bool   // live[h]: handle h is held by a caller
	free     []Handle // dropped handles awaiting reuse
}

// NewMetaStore creates a presence-only store.
func NewMetaStore(pageSize int) *MetaStore {
	if pageSize <= 0 {
		panic("tmem: non-positive page size")
	}
	return &MetaStore{pageSize: pageSize}
}

// PageSize implements PageStore.
func (s *MetaStore) PageSize() int { return s.pageSize }

// Save implements PageStore.
func (s *MetaStore) Save(data []byte) (Handle, error) {
	if len(data) > s.pageSize {
		return NoHandle, fmt.Errorf("tmem: page data %d bytes exceeds page size %d", len(data), s.pageSize)
	}
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		s.live[h] = true
		return h, nil
	}
	s.live = append(s.live, true)
	return Handle(len(s.live) - 1), nil
}

// known reports whether h is a handle Save returned and Drop has not
// released since.
func (s *MetaStore) known(h Handle) bool {
	return h >= 0 && h < Handle(len(s.live)) && s.live[h]
}

// Load implements PageStore.
func (s *MetaStore) Load(h Handle, dst []byte) error {
	if !s.known(h) {
		return fmt.Errorf("tmem: load of unknown handle %d", h)
	}
	if len(dst) < s.pageSize {
		return fmt.Errorf("tmem: destination %d bytes smaller than page size %d", len(dst), s.pageSize)
	}
	clear(dst[:s.pageSize])
	return nil
}

// Drop implements PageStore.
func (s *MetaStore) Drop(h Handle) error {
	if !s.known(h) {
		return fmt.Errorf("tmem: drop of unknown handle %d", h)
	}
	s.live[h] = false
	s.free = append(s.free, h)
	return nil
}

// Footprint implements PageStore.
func (s *MetaStore) Footprint() int64 { return int64(s.Count()) * 16 } // bookkeeping only

// Count implements PageStore.
func (s *MetaStore) Count() int { return len(s.live) - len(s.free) }

// Compile-time interface checks.
var (
	_ PageStore = (*DataStore)(nil)
	_ PageStore = (*MetaStore)(nil)
)
