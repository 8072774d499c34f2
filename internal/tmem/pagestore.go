package tmem

import (
	"bytes"
	"compress/zlib"
	"fmt"
	"io"
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
//   - CompressStore: zlib-compressed copies — models compressed tmem
//     backends (zcache / Ex-tmem-style related work, paper §VI).
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

// DataStore keeps verbatim page copies, matching Xen's page-copy interface.
// Page buffers are slab-managed: Drop pushes the buffer onto a free list and
// Save pops from it, so a store cycling at a steady page count performs no
// allocation after its high-water mark (DESIGN.md §9). The free list is
// bounded to the store's own high-water mark by construction — it only ever
// holds buffers the store previously handed out.
type DataStore struct {
	pageSize int
	pages    map[Handle][]byte
	next     Handle
	free     [][]byte // slab free list of page-size buffers
}

// NewDataStore creates a store of full page copies.
func NewDataStore(pageSize int) *DataStore {
	if pageSize <= 0 {
		panic("tmem: non-positive page size")
	}
	return &DataStore{pageSize: pageSize, pages: make(map[Handle][]byte)}
}

// PageSize implements PageStore.
func (s *DataStore) PageSize() int { return s.pageSize }

// Save implements PageStore.
func (s *DataStore) Save(data []byte) (Handle, error) {
	if len(data) > s.pageSize {
		return NoHandle, fmt.Errorf("tmem: page data %d bytes exceeds page size %d", len(data), s.pageSize)
	}
	var p []byte
	if n := len(s.free); n > 0 {
		p = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		clear(p[copy(p, data):]) // recycled buffer: zero the tail
	} else {
		p = make([]byte, s.pageSize)
		copy(p, data)
	}
	h := s.next
	s.next++
	s.pages[h] = p
	return h, nil
}

// Load implements PageStore.
func (s *DataStore) Load(h Handle, dst []byte) error {
	p, ok := s.pages[h]
	if !ok {
		return fmt.Errorf("tmem: load of unknown handle %d", h)
	}
	if len(dst) < s.pageSize {
		return fmt.Errorf("tmem: destination %d bytes smaller than page size %d", len(dst), s.pageSize)
	}
	copy(dst, p)
	return nil
}

// Drop implements PageStore.
func (s *DataStore) Drop(h Handle) error {
	p, ok := s.pages[h]
	if !ok {
		return fmt.Errorf("tmem: drop of unknown handle %d", h)
	}
	delete(s.pages, h)
	s.free = append(s.free, p)
	return nil
}

// Footprint implements PageStore. Live pages only; buffers parked on the
// slab free list are reported separately by Reserved.
func (s *DataStore) Footprint() int64 { return int64(len(s.pages)) * int64(s.pageSize) }

// Reserved returns the bytes held on the slab free list, awaiting reuse.
func (s *DataStore) Reserved() int64 { return int64(len(s.free)) * int64(s.pageSize) }

// Count implements PageStore.
func (s *DataStore) Count() int { return len(s.pages) }

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

// --- CompressStore ---

// CompressStore keeps zlib-compressed page copies, modelling compressed
// tmem backends (zcache). Pages that compress poorly are kept verbatim.
type CompressStore struct {
	pageSize int
	pages    map[Handle][]byte // compressed representation
	raw      map[Handle]bool   // true => stored uncompressed
	next     Handle
	saved    int64 // bytes saved vs verbatim storage (diagnostic)
}

// NewCompressStore creates a compressing store.
func NewCompressStore(pageSize int) *CompressStore {
	if pageSize <= 0 {
		panic("tmem: non-positive page size")
	}
	return &CompressStore{
		pageSize: pageSize,
		pages:    make(map[Handle][]byte),
		raw:      make(map[Handle]bool),
	}
}

// PageSize implements PageStore.
func (s *CompressStore) PageSize() int { return s.pageSize }

// Save implements PageStore.
func (s *CompressStore) Save(data []byte) (Handle, error) {
	if len(data) > s.pageSize {
		return NoHandle, fmt.Errorf("tmem: page data %d bytes exceeds page size %d", len(data), s.pageSize)
	}
	page := make([]byte, s.pageSize)
	copy(page, data)

	var buf bytes.Buffer
	zw := zlib.NewWriter(&buf)
	if _, err := zw.Write(page); err != nil {
		return NoHandle, fmt.Errorf("tmem: compress: %w", err)
	}
	if err := zw.Close(); err != nil {
		return NoHandle, fmt.Errorf("tmem: compress close: %w", err)
	}

	h := s.next
	s.next++
	if buf.Len() < s.pageSize {
		s.pages[h] = append([]byte(nil), buf.Bytes()...)
		s.raw[h] = false
		s.saved += int64(s.pageSize - buf.Len())
	} else {
		s.pages[h] = page
		s.raw[h] = true
	}
	return h, nil
}

// Load implements PageStore.
func (s *CompressStore) Load(h Handle, dst []byte) error {
	p, ok := s.pages[h]
	if !ok {
		return fmt.Errorf("tmem: load of unknown handle %d", h)
	}
	if len(dst) < s.pageSize {
		return fmt.Errorf("tmem: destination %d bytes smaller than page size %d", len(dst), s.pageSize)
	}
	if s.raw[h] {
		copy(dst, p)
		return nil
	}
	zr, err := zlib.NewReader(bytes.NewReader(p))
	if err != nil {
		return fmt.Errorf("tmem: decompress: %w", err)
	}
	defer zr.Close()
	if _, err := io.ReadFull(zr, dst[:s.pageSize]); err != nil {
		return fmt.Errorf("tmem: decompress read: %w", err)
	}
	return nil
}

// Drop implements PageStore.
func (s *CompressStore) Drop(h Handle) error {
	p, ok := s.pages[h]
	if !ok {
		return fmt.Errorf("tmem: drop of unknown handle %d", h)
	}
	if !s.raw[h] {
		s.saved -= int64(s.pageSize - len(p))
	}
	delete(s.pages, h)
	delete(s.raw, h)
	return nil
}

// Footprint implements PageStore.
func (s *CompressStore) Footprint() int64 {
	var n int64
	for _, p := range s.pages {
		n += int64(len(p))
	}
	return n
}

// Count implements PageStore.
func (s *CompressStore) Count() int { return len(s.pages) }

// BytesSaved returns the cumulative bytes saved by compression.
func (s *CompressStore) BytesSaved() int64 { return s.saved }

// Compile-time interface checks.
var (
	_ PageStore = (*DataStore)(nil)
	_ PageStore = (*MetaStore)(nil)
	_ PageStore = (*CompressStore)(nil)
)
