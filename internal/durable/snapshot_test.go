package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

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
	opts.SlabBytes = 4096
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
	if b := s.blobs[key]; cap(b) > 0 {
		s.free = append(s.free, b)
	}
	delete(s.blobs, key)
	return nil
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

// TestCompactAllocationBoundedBySlab: a compaction allocates its cut (two
// locations per page) and one slab buffer — never the pages.
func TestCompactAllocationBoundedBySlab(t *testing.T) {
	const (
		pages    = 4096
		pageSize = 4096
		slab     = 64 << 10
	)
	blob := newKeepStore()
	l := mustOpen(t, Options{
		Blob: blob, PageSize: pageSize, SlabBytes: slab,
		Fsync: FsyncOff, InlineCompact: true, CompactBytes: -1,
	})
	defer l.Close()
	fillPages(t, l, pages, pageSize)
	for i := 0; i < 2; i++ { // the store's buffers: this snapshot's and the one it replaces
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
	}
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

// hookStore runs onPut before every Put and onRead before every ranged
// read; an error from either fails the call without touching the store.
type hookStore struct {
	BlobStore
	onPut  func(key string) error
	onRead func(key string) error
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
// the WAL segments written since — and checks the failure is reported,
// harmless and cleaned up.
func TestCompactFaultAtEveryStep(t *testing.T) {
	injected := errors.New("injected blob failure")
	// A state spread over an older snapshot and the WAL on top of it.
	newLog := func(h *hookStore) (*Log, map[tmem.Key][]byte) {
		opts := testOpts(h)
		opts.SlabBytes = 4096
		opts.SegmentBytes = 8192
		l := mustOpen(t, opts)
		want := seededState(t, l)
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		seededOps(t, l, want, 0x2545f4914f6cdd1d, 150)
		return l, want
	}

	// A clean compaction of that state says how many puts and reads there are.
	var puts, reads int
	h := &hookStore{BlobStore: NewMemStore()}
	l, _ := newLog(h)
	h.onPut = func(string) error { puts++; return nil }
	h.onRead = func(string) error { reads++; return nil }
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if puts < 3 || reads < 100 {
		t.Fatalf("the state compacts in %d puts and %d reads; the test needs several slabs and many pages", puts, reads)
	}

	fault := func(t *testing.T, arm func(h *hookStore, fail func() error), check func(t *testing.T, partial []string)) {
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
		h.onPut, h.onRead = nil, nil
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
			fault(t, func(h *hookStore, fail func() error) {
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
			fault(t, func(h *hookStore, fail func() error) {
				h.onRead = func(string) error {
					if n++; n == k {
						return fail()
					}
					return nil
				}
			}, func(*testing.T, []string) {})
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
	sum.Add(Stats{CompactNanos: 7, Compacting: true})
	sum.Add(Stats{CompactNanos: 1})
	if sum.CompactNanos != 13 || !sum.Compacting {
		t.Fatalf("Stats.Add: CompactNanos=%d Compacting=%v, want 13 and true", sum.CompactNanos, sum.Compacting)
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
