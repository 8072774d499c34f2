package durable

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"smartmem/internal/metrics"
	"smartmem/internal/tmem"
)

// seededState drives l through a fixed pseudo-random history — three
// pools created out of id order, pages of every length from empty to a
// full page, overwrites, page and object flushes — and returns the model
// of what must be live afterwards.
func seededState(t testing.TB, l *Log) map[tmem.Key][]byte {
	t.Helper()
	for _, p := range seededPools {
		if err := l.NewPool(p, tmem.VMID(p)+10, tmem.Persistent); err != nil {
			t.Fatalf("NewPool %d: %v", p, err)
		}
	}
	want := make(map[tmem.Key][]byte)
	seededOps(t, l, want, 0x9e3779b97f4a7c15, 600)
	return want
}

var seededPools = []tmem.PoolID{7, 2, 5}

// seededOps applies n pseudo-random puts and flushes over the seededPools
// key space to l and to the model. The generator is a local xorshift so
// the history never depends on a library's stream.
func seededOps(t testing.TB, l *Log, want map[tmem.Key][]byte, x uint64, n int) {
	t.Helper()
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < n; i++ {
		r := next()
		k := tmem.Key{
			Pool:   seededPools[r%3],
			Object: tmem.ObjectID((r >> 8) % 23),
			Index:  tmem.PageIndex((r >> 16) % 19),
		}
		switch op := (r >> 32) % 10; {
		case op < 7:
			d := make([]byte, (r>>40)%(testPageSize+1))
			for j := range d {
				d[j] = byte(next())
			}
			if err := l.Put(k, d); err != nil {
				t.Fatalf("Put %v: %v", k, err)
			}
			want[k] = d
		case op < 9:
			if _, err := l.FlushPage(k); err != nil {
				t.Fatalf("FlushPage %v: %v", k, err)
			}
			delete(want, k)
		default:
			if _, err := l.FlushObject(k.Pool, k.Object); err != nil {
				t.Fatalf("FlushObject %v: %v", k, err)
			}
			for wk := range want {
				if wk.Pool == k.Pool && wk.Object == k.Object {
					delete(want, wk)
				}
			}
		}
	}
}

// snapshotDigest hashes every blob under snapshot/ (key, length, bytes)
// in key order.
func snapshotDigest(t testing.TB, blob BlobStore) (digest string, blobs int) {
	t.Helper()
	keys, err := blob.List(snapshotPrefix)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, k := range keys {
		b, err := blob.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(k))
		h.Write(binary.BigEndian.AppendUint64(nil, uint64(len(b))))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), len(keys)
}

// TestSnapshotBytesPinned pins the snapshot's bytes — slab boundaries,
// record order, manifest — to what the all-slabs-in-memory writer this
// one replaced produced for the same state (digest recorded at the
// parent commit).
func TestSnapshotBytesPinned(t *testing.T) {
	const (
		wantDigest = "5b69c93c68fa797468cfbb70382ece4feb6df2a63c9632581d0368eba210920a"
		wantBlobs  = 10 // 9 slabs + MANIFEST
	)
	blob := NewMemStore()
	opts := testOpts(blob)
	opts.slabBytes = 4096
	l := mustOpen(t, opts)
	defer l.Close()
	seededState(t, l)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	got, n := snapshotDigest(t, blob)
	if got != wantDigest || n != wantBlobs {
		t.Fatalf("snapshot = %d blobs, sha256 %s; want %d blobs, %s", n, got, wantBlobs, wantDigest)
	}
}

// keepStore is the BlobStore of the allocation tests: a MemStore — a
// compaction reads its pages back from the store, so the store must keep
// what it is given — whose Put takes its buffer from a deleted blob, so
// that once two snapshots' worth of buffers exist, what a compaction
// allocates over it is the compaction's own.
type keepStore struct {
	*MemStore
	free        [][]byte // under MemStore.mu
	puts, bytes int64
}

func newKeepStore() *keepStore { return &keepStore{MemStore: NewMemStore()} }

func (s *keepStore) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.bytes += int64(len(data))
	buf := s.blobs[key]
	if s.sharedLocked(key, buf) {
		buf = nil
	}
	if i := slices.IndexFunc(s.free, func(f []byte) bool { return cap(f) >= len(data) }); buf == nil && i >= 0 {
		buf = s.free[i]
		s.free = slices.Delete(s.free, i, i+1)
	}
	s.blobs[key] = append(buf[:0], data...)
	return nil
}

func (s *keepStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.blobs[key]; cap(b) > 0 && !s.sharedLocked(key, b) {
		s.free = append(s.free, b)
	}
	delete(s.blobs, key)
	return nil
}

// sharedLocked reports whether a key other than key holds b's bytes, as
// MemStore.Link leaves a linked blob: they are not the store's to reuse.
func (s *keepStore) sharedLocked(key string, b []byte) bool {
	if cap(b) == 0 {
		return false
	}
	for k, o := range s.blobs {
		if k != key && cap(o) > 0 && unsafe.SliceData(o) == unsafe.SliceData(b) {
			return true
		}
	}
	return false
}

// fillPages journals n pages of pageSize bytes into pool 0.
func fillPages(t testing.TB, l *Log, n, pageSize int) {
	t.Helper()
	if err := l.NewPool(0, 1, tmem.Persistent); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, pageSize)
	for i := 0; i < n; i++ {
		data[0], data[1] = byte(i), byte(i>>8)
		if err := l.Put(key(0, tmem.ObjectID(i/64), tmem.PageIndex(i%64)), data); err != nil {
			t.Fatal(err)
		}
	}
}

// dirtyEveryBlob flushes one page of every blob the index names and puts it
// back as it was. The live state is unchanged, but every blob now holds a
// superseded put and the active segment a flush record, so the next
// compaction links nothing and copies every page.
func dirtyEveryBlob(t testing.TB, l *Log) {
	t.Helper()
	type page struct {
		key tmem.Key
		n   uint32
	}
	l.mu.Lock()
	one := make(map[uint64]page)
	for k, at := range l.index.All {
		one[at.blob] = page{k, at.n}
	}
	l.mu.Unlock()
	data := make([]byte, l.opts.PageSize)
	for _, p := range one {
		if !l.Get(p.key, data) {
			t.Fatalf("page %v does not read back", p.key)
		}
		if _, err := l.FlushPage(p.key); err != nil {
			t.Fatal(err)
		}
		if err := l.Put(p.key, data[:p.n]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactAllocationBoundedBySlab: a compaction allocates its cut (two
// locations per page) and one slab buffer — never the pages. Every blob is
// dirtied first, so the measured compaction copies every page.
func TestCompactAllocationBoundedBySlab(t *testing.T) {
	const (
		pages    = 4096
		pageSize = 4096
		slab     = 64 << 10
	)
	blob := newKeepStore()
	l := mustOpen(t, Options{
		Blob: blob, PageSize: pageSize, slabBytes: slab,
		Fsync: FsyncOff, InlineCompact: true, CompactBytes: -1,
	})
	defer l.Close()
	fillPages(t, l, pages, pageSize)
	for i := 0; i < 2; i++ { // the store's buffers: this snapshot's and the one it replaces
		dirtyEveryBlob(t, l)
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	dirtyEveryBlob(t, l)
	blob.puts, blob.bytes = 0, 0

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	if got := blob.bytes; got < pages*pageSize {
		t.Fatalf("snapshot wrote %d bytes, less than the %d of page data", got, pages*pageSize)
	}
	if want := int64(pages*pageSize/slab) + 1; blob.puts < want {
		t.Fatalf("snapshot made %d puts, want at least %d", blob.puts, want)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("Compact of %d pages allocated %d KiB", pages, grew>>10)
	if grew >= 2<<20 {
		t.Fatalf("Compact of %d MiB of pages allocated %d KiB, want < 2 MiB",
			pages*pageSize>>20, grew>>10)
	}
}

// hookStore runs onPut before every Put, onLink before every Link and
// onRead before every ranged read; an error from any fails the call
// without touching the store.
type hookStore struct {
	BlobStore
	onPut  func(key string) error
	onLink func(src, dst string) error
	onRead func(key string) error
}

func (h *hookStore) Link(src, dst string) error {
	if h.onLink != nil {
		if err := h.onLink(src, dst); err != nil {
			return err
		}
	}
	return h.BlobStore.Link(src, dst)
}

func (h *hookStore) Put(key string, data []byte) error {
	if h.onPut != nil {
		if err := h.onPut(key); err != nil {
			return err
		}
	}
	return h.BlobStore.Put(key, data)
}

func (h *hookStore) Open(key string) (BlobReader, error) {
	r, err := h.BlobStore.Open(key)
	if err != nil {
		return nil, err
	}
	return hookReader{r, h, key}, nil
}

type hookReader struct {
	BlobReader
	h   *hookStore
	key string
}

func (r hookReader) ReadAt(p []byte, off int64) (int, error) {
	if r.h.onRead != nil {
		if err := r.h.onRead(r.key); err != nil {
			return 0, err
		}
	}
	return r.BlobReader.ReadAt(p, off)
}

// livePages collects the log's live pages through RangePages.
func livePages(t testing.TB, l *Log) map[tmem.Key][]byte {
	t.Helper()
	got := make(map[tmem.Key][]byte)
	err := l.RangePages(func(k tmem.Key, d []byte) bool {
		got[k] = slices.Clone(d)
		return true
	})
	if err != nil {
		t.Fatalf("RangePages: %v", err)
	}
	return got
}

// checkModel reads every live page back through the index and holds the
// result, and the gauges, against the model.
func checkModel(t testing.TB, l *Log, want map[tmem.Key][]byte) {
	t.Helper()
	got := livePages(t, l)
	if len(got) != len(want) {
		t.Fatalf("log holds %d pages, model %d", len(got), len(want))
	}
	var bytesLive uint64
	for k, d := range want {
		if g, ok := got[k]; !ok || !bytes.Equal(g, d) {
			t.Fatalf("page %v: present=%v, bytes differ from the model", k, ok)
		}
		bytesLive += uint64(len(d))
	}
	if st := l.Stats(); st.PagesLive != uint64(len(want)) || st.BytesLive != bytesLive {
		t.Fatalf("gauges say %d pages / %d bytes, model %d / %d", st.PagesLive, st.BytesLive, len(want), bytesLive)
	}
}

// TestCompactFaultAtEveryStep fails the k-th blob Put of a compaction, for
// k over every slab and the manifest, and the k-th ranged read, for k over
// every page it copies — out of the previous snapshot's slabs and out of
// the WAL segments written since — and, in a state whose blobs are all
// live pages, the k-th Link; it checks each failure is reported, harmless
// and cleaned up.
func TestCompactFaultAtEveryStep(t *testing.T) {
	injected := errors.New("injected blob failure")
	// A state spread over an older snapshot and the WAL on top of it, with
	// no blob all live pages: the compaction copies every page.
	copyState := func(h *hookStore) (*Log, map[tmem.Key][]byte) {
		opts := testOpts(h)
		opts.slabBytes = 4096
		opts.segmentBytes = 8192
		l := mustOpen(t, opts)
		want := seededState(t, l)
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		seededOps(t, l, want, 0x2545f4914f6cdd1d, 150)
		// The history ends on a put alone in its segment, which the cut
		// would seal and link: a page flushed and put back as it was
		// leaves the snapshot's bytes as they were and the segment dirty.
		k := slices.MinFunc(slices.Collect(maps.Keys(want)), func(a, b tmem.Key) int {
			return cmp.Or(cmp.Compare(a.Pool, b.Pool), cmp.Compare(a.Object, b.Object), cmp.Compare(a.Index, b.Index))
		})
		if _, err := l.FlushPage(k); err != nil {
			t.Fatal(err)
		}
		if err := l.Put(k, want[k]); err != nil {
			t.Fatal(err)
		}
		return l, want
	}
	// A bulk load, compacted, and more of it in the WAL: the compaction
	// copies the old slab 0 (the pool record) and links the other slabs
	// and every segment.
	linkState := func(h *hookStore) (*Log, map[tmem.Key][]byte) {
		opts := testOpts(h)
		opts.slabBytes = 4096
		opts.segmentBytes = 8192
		l := mustOpen(t, opts)
		for _, p := range seededPools {
			if err := l.NewPool(p, tmem.VMID(p)+10, tmem.Persistent); err != nil {
				t.Fatal(err)
			}
		}
		want := make(map[tmem.Key][]byte)
		load := func(from, to int) {
			for i := from; i < to; i++ {
				k := key(seededPools[i%3], tmem.ObjectID(i/3/19), tmem.PageIndex(i/3%19))
				want[k] = page(byte(i))
				if err := l.Put(k, want[k]); err != nil {
					t.Fatal(err)
				}
			}
		}
		load(0, 160)
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		load(160, 240)
		return l, want
	}

	// A clean compaction of a state says how many puts, links and reads
	// there are.
	count := func(newLog func(*hookStore) (*Log, map[tmem.Key][]byte)) (puts, links, reads int) {
		h := &hookStore{BlobStore: NewMemStore()}
		l, _ := newLog(h)
		h.onPut = func(string) error { puts++; return nil }
		h.onLink = func(string, string) error { links++; return nil }
		h.onRead = func(string) error { reads++; return nil }
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		return puts, links, reads
	}
	puts, links, reads := count(copyState)
	if puts < 3 || reads < 100 || links != 0 {
		t.Fatalf("the copy state compacts in %d puts, %d links and %d reads; the test needs several slabs, many pages and no link", puts, links, reads)
	}
	_, links, _ = count(linkState)
	if links < 4 {
		t.Fatalf("the link state compacts with %d links; the test needs several", links)
	}

	fault := func(t *testing.T, newLog func(*hookStore) (*Log, map[tmem.Key][]byte), arm func(h *hookStore, fail func() error), check func(t *testing.T, partial []string)) {
		mem := NewMemStore()
		h := &hookStore{BlobStore: mem}
		l, want := newLog(h)
		segsBefore, _ := listSegments(mem)
		blobsBefore, _ := mem.List(snapshotPrefix)
		arm(h, func() error { return injected })

		err := l.Compact()
		if !errors.Is(err, injected) {
			t.Fatalf("Compact = %v, want the injected failure", err)
		}
		h.onPut, h.onLink, h.onRead = nil, nil, nil
		if st := l.Stats(); st.Errors != 1 || st.Compactions != 1 {
			t.Fatalf("after the failure: Errors=%d Compactions=%d, want 1 and 1", st.Errors, st.Compactions)
		}
		blobs, _ := mem.List(snapshotPrefix)
		partial := blobs[len(blobsBefore):] // the new directory sorts after the old
		if !slices.Equal(blobs[:len(blobsBefore)], blobsBefore) {
			t.Fatalf("a failed compaction touched the snapshot it was replacing: %v -> %v", blobsBefore, blobs)
		}
		for _, key := range partial {
			if strings.HasSuffix(key, manifestName) {
				t.Fatalf("failed snapshot has a manifest: %s", key)
			}
		}
		check(t, partial)
		segsAfter, _ := listSegments(mem)
		if len(segsAfter) != len(segsBefore)+1 { // the cut opened one, pruned none
			t.Fatalf("WAL segments %v -> %v: a failed compaction must prune nothing", segsBefore, segsAfter)
		}
		// The index still names blobs that exist: every acknowledged page
		// reads back, and the log keeps working.
		checkModel(t, l, want)
		seededOps(t, l, want, 0x9e6c63d0676a9a99, 20)
		checkModel(t, l, want)
		l.Close()

		// Recovery ignores the partial directory.
		l2 := mustOpen(t, testOpts(h))
		if ri := l2.Recovery(); ri.SnapshotSeq != l.snapshotSeq {
			t.Fatalf("recovery used snapshot %x, the last completed one is %x", ri.SnapshotSeq, l.snapshotSeq)
		}
		checkModel(t, l2, want)

		// The next compaction succeeds and sweeps it away.
		if err := l2.Compact(); err != nil {
			t.Fatal(err)
		}
		blobs, _ = mem.List(snapshotPrefix)
		dir := snapshotDir(l2.snapshotSeq) + "/"
		for _, key := range blobs {
			if !strings.HasPrefix(key, dir) {
				t.Fatalf("blob %s survives outside the current snapshot %s", key, dir)
			}
		}
		checkModel(t, l2, want)
		l2.Close()
		l3 := mustOpen(t, testOpts(mem))
		defer l3.Close()
		if ri := l3.Recovery(); ri.SnapshotSeq != l2.snapshotSeq {
			t.Fatal("the completed snapshot was not used")
		}
		checkModel(t, l3, want)
	}

	for k := 1; k <= puts; k++ {
		t.Run(fmt.Sprintf("put-%d-of-%d", k, puts), func(t *testing.T) {
			n := 0
			fault(t, copyState, func(h *hookStore, fail func() error) {
				h.onPut = func(string) error {
					if n++; n == k {
						return fail()
					}
					return nil
				}
			}, func(t *testing.T, partial []string) {
				if len(partial) != k-1 {
					t.Fatalf("the failed snapshot left %d blobs, want the %d written before put %d", len(partial), k-1, k)
				}
			})
		})
	}
	for k := 1; k <= reads; k++ {
		t.Run(fmt.Sprintf("read-%d-of-%d", k, reads), func(t *testing.T) {
			n := 0
			fault(t, copyState, func(h *hookStore, fail func() error) {
				h.onRead = func(string) error {
					if n++; n == k {
						return fail()
					}
					return nil
				}
			}, func(*testing.T, []string) {})
		})
	}
	for k := 1; k <= links; k++ {
		t.Run(fmt.Sprintf("link-%d-of-%d", k, links), func(t *testing.T) {
			n, slabs := 0, 0
			fault(t, linkState, func(h *hookStore, fail func() error) {
				h.onPut = func(string) error { slabs++; return nil }
				h.onLink = func(string, string) error {
					if n++; n == k {
						return fail()
					}
					return nil
				}
			}, func(t *testing.T, partial []string) {
				if len(partial) != slabs+k-1 {
					t.Fatalf("the failed snapshot left %d blobs, want the %d copied slabs and the %d linked before link %d", len(partial), slabs, k-1, k)
				}
			})
		})
	}
}

// TestClosedLogHoldsNoPages: a closed handle serves nothing and counts
// nothing, whichever way it was closed.
func TestClosedLogHoldsNoPages(t *testing.T) {
	for _, mode := range []string{"Close", "CloseClean"} {
		t.Run(mode, func(t *testing.T) {
			l := mustOpen(t, testOpts(NewMemStore()))
			seedLog(t, l, 0, 64)
			var err error
			if mode == "Close" {
				err = l.Close()
			} else {
				err = l.CloseClean()
			}
			if err != nil {
				t.Fatal(err)
			}

			k := key(0, 0, 0)
			if l.Get(k, make([]byte, testPageSize)) || l.Contains(k) {
				t.Error("a closed log still serves a page")
			}
			if n := len(livePages(t, l)); n != 0 {
				t.Errorf("RangePages on a closed log visited %d pages", n)
			}
			if st := l.Stats(); st.PagesLive != 0 || st.BytesLive != 0 {
				t.Errorf("closed log reports %d live pages, %d bytes", st.PagesLive, st.BytesLive)
			}
			if err := l.Put(k, page(1)); err == nil {
				t.Error("Put on a closed log succeeded")
			}
		})
	}
}

// TestCloseDuringCompaction: a log closed while a compaction writes its
// snapshot lets the compaction finish without an index to move, and the
// snapshot it wrote loads.
func TestCloseDuringCompaction(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	mem := NewMemStore()
	h := &hookStore{BlobStore: mem}
	l := mustOpen(t, testOpts(h))
	want := seedLog(t, l, 0, 64)
	first := true
	h.onPut = func(string) error {
		if first {
			first = false
			close(entered)
			<-release
		}
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- l.Compact() }()
	<-entered
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, testOpts(mem))
	defer l2.Close()
	if !l2.Recovery().SnapshotLoaded {
		t.Fatal("the compaction left no snapshot")
	}
	checkModel(t, l2, want)
}

// TestCompactionStats: the compaction clock and gauge run for background-
// mode logs and stay untouched in the deterministic inline mode.
func TestCompactionStats(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	h := &hookStore{BlobStore: NewMemStore()}
	opts := testOpts(h)
	opts.InlineCompact = false // CompactBytes < 0: no background loop either
	l := mustOpen(t, opts)
	defer l.Close()
	seedLog(t, l, 0, 16)
	if st := l.Stats(); st.Compacting || st.CompactNanos != 0 {
		t.Fatalf("before any compaction: %+v", st)
	}

	first := true
	h.onPut = func(string) error {
		if first {
			first = false
			close(entered)
			<-release
		}
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- l.Compact() }()
	<-entered
	if !l.Stats().Compacting {
		t.Error("Compacting is false while a snapshot is being written")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Compacting || st.CompactNanos == 0 || st.Compactions != 1 {
		t.Fatalf("after the compaction: Compacting=%v CompactNanos=%d Compactions=%d",
			st.Compacting, st.CompactNanos, st.Compactions)
	}

	sum := Stats{CompactNanos: 5}
	metrics.Add(&sum, Stats{CompactNanos: 7, Compacting: true})
	metrics.Add(&sum, Stats{CompactNanos: 1})
	if sum.CompactNanos != 13 || !sum.Compacting {
		t.Fatalf("metrics.Add: CompactNanos=%d Compacting=%v, want 13 and true", sum.CompactNanos, sum.Compacting)
	}

	inline := mustOpen(t, testOpts(NewMemStore()))
	defer inline.Close()
	seedLog(t, inline, 0, 16)
	if err := inline.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := inline.Stats(); st.CompactNanos != 0 || st.Compacting {
		t.Fatalf("inline mode read the clock: %+v", st)
	}
}

// TestCompactLinksFullyLiveBlobs: a compaction links every sealed blob that
// holds only live pages — WAL segments of a bulk load, slabs of the
// snapshot before — and copies the rest, and the snapshot it leaves loads
// back to the model.
func TestCompactLinksFullyLiveBlobs(t *testing.T) {
	for _, store := range []struct {
		name string
		make func(testing.TB) BlobStore
	}{
		{"mem", func(testing.TB) BlobStore { return NewMemStore() }},
		{"dir", dirStore},
	} {
		t.Run(store.name, func(t *testing.T) {
			inner := store.make(t)
			h := &hookStore{BlobStore: inner}
			opts := testOpts(h)
			opts.segmentBytes, opts.slabBytes = 4096, 4096
			l := mustOpen(t, opts)
			defer func() { l.Close() }()
			want := seedLog(t, l, 0, 300)

			// compact runs one compaction and reports what it put, linked
			// (source keys) and read from (keys).
			compact := func() (putBytes int, linked, read map[string]bool) {
				t.Helper()
				var puts []string
				linked, read = make(map[string]bool), make(map[string]bool)
				h.onPut = func(key string) error { puts = append(puts, key); return nil }
				h.onLink = func(src, _ string) error { linked[src] = true; return nil }
				h.onRead = func(key string) error { read[key] = true; return nil }
				if err := l.Compact(); err != nil {
					t.Fatal(err)
				}
				h.onPut, h.onLink, h.onRead = nil, nil, nil
				for _, k := range puts {
					if strings.HasSuffix(k, ".slab") {
						b, err := inner.Get(k)
						if err != nil {
							t.Fatal(err)
						}
						putBytes += len(b)
					}
				}
				return putBytes, linked, read
			}
			// slabs lists the current snapshot's slab keys but slab 0.
			slabs := func() map[string]bool {
				keys, _ := inner.List(snapshotDir(l.snapshotSeq) + "/")
				out := make(map[string]bool)
				for _, k := range keys {
					if strings.HasSuffix(k, ".slab") && k != slabKey(l.snapshotSeq, 0) {
						out[k] = true
					}
				}
				return out
			}

			// The bulk load: the first segment (it holds the pool record) is
			// copied, every other one linked.
			putBytes, linked, _ := compact()
			if putBytes > int(opts.slabBytes) || len(linked) < 10 {
				t.Fatalf("a bulk load's compaction put %d slab bytes and linked %d blobs; want at most one slab's %d and most segments",
					putBytes, len(linked), opts.slabBytes)
			}
			checkModel(t, l, want)

			// Unchanged: everything but slab 0 is linked, and only slab 0 read.
			before := slabs()
			putBytes, linked, read := compact()
			if !maps.Equal(linked, before) {
				t.Fatalf("an unchanged state's compaction linked %v, want every slab but 0: %v", linked, before)
			}
			if len(read) > 1 || putBytes > int(opts.slabBytes) {
				t.Fatalf("an unchanged state's compaction read %v and put %d slab bytes; want slab 0 alone", read, putBytes)
			}

			// One put or flush into each of k linked slabs: those k are
			// copied, the rest linked again.
			before = slabs()
			dirty := make(map[string]bool)
			l.mu.Lock()
			var pages []pageRef
			for k, at := range l.index.All {
				pages = append(pages, pageRef{k, *at})
			}
			seq := l.snapshotSeq
			l.mu.Unlock()
			sortPageRefs(pages)
			for _, slab := range []int{2, 5, 7} {
				i := slices.IndexFunc(pages, func(p pageRef) bool { return p.at.blob == slabBit|uint64(slab) })
				if i < 0 {
					t.Fatalf("no page in slab %d", slab)
				}
				k := pages[i].key
				if slab == 5 {
					if _, err := l.FlushPage(k); err != nil {
						t.Fatal(err)
					}
					delete(want, k)
				} else {
					want[k] = page(byte(slab))
					if err := l.Put(k, want[k]); err != nil {
						t.Fatal(err)
					}
				}
				dirty[slabKey(seq, slab)] = true
			}
			_, linked, read = compact()
			maps.DeleteFunc(before, func(k string, _ bool) bool { return dirty[k] })
			if !maps.Equal(linked, before) {
				t.Fatalf("after dirtying %v the compaction linked %v, want %v", dirty, linked, before)
			}
			for k := range dirty {
				if !read[k] {
					t.Fatalf("dirty slab %s was not copied: the compaction read %v", k, read)
				}
			}
			if len(read) != len(dirty)+2 { // and slab 0, and the segment holding the put
				t.Fatalf("the compaction read %v; want slab 0, %v and one segment", read, dirty)
			}
			checkModel(t, l, want)

			// An un-clean close and reopen gives back the model.
			l.Close()
			l = mustOpen(t, opts)
			if ri := l.Recovery(); !ri.SnapshotLoaded || ri.SnapshotPages != uint64(len(want)) || ri.CorruptRecords != 0 {
				t.Fatalf("reopen: %+v", ri)
			}
			checkModel(t, l, want)

			// The MANIFEST is the five fields a log without links reads.
			raw, err := inner.Get(snapshotDir(l.snapshotSeq) + "/" + manifestName)
			if err != nil {
				t.Fatal(err)
			}
			var mf struct {
				WALResume uint64 `json:"wal_resume"`
				Slabs     int    `json:"slabs"`
				Pools     int    `json:"pools"`
				Pages     uint64 `json:"pages"`
				Bytes     uint64 `json:"bytes"`
			}
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&mf); err != nil {
				t.Fatalf("MANIFEST %s: %v", raw, err)
			}
			if n := len(slabs()) + 1; mf.Slabs != n || mf.Pages != uint64(len(want)) {
				t.Fatalf("MANIFEST %s; the snapshot holds %d slabs and %d pages", raw, n, len(want))
			}
		})
	}
}
