package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"smartmem/internal/tmem"
)

// seededState drives l through a fixed pseudo-random history — three
// pools created out of id order, pages of every length from empty to a
// full page, overwrites, page and object flushes — and returns the model
// of what must be live afterwards. The generator is a local xorshift so
// the history never depends on a library's stream.
func seededState(t testing.TB, l *Log) map[tmem.Key][]byte {
	t.Helper()
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	pools := []tmem.PoolID{7, 2, 5}
	for _, p := range pools {
		if err := l.NewPool(p, tmem.VMID(p)+10, tmem.Persistent); err != nil {
			t.Fatalf("NewPool %d: %v", p, err)
		}
	}
	want := make(map[tmem.Key][]byte)
	for i := 0; i < 600; i++ {
		r := next()
		k := tmem.Key{
			Pool:   pools[r%3],
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
	return want
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

// discardStore is a BlobStore that keeps nothing: what a compaction
// allocates over it is the compaction's own.
type discardStore struct {
	puts, bytes atomic.Int64
}

func (d *discardStore) Put(_ string, data []byte) error {
	d.puts.Add(1)
	d.bytes.Add(int64(len(data)))
	return nil
}
func (d *discardStore) Get(key string) ([]byte, error) {
	return nil, fmt.Errorf("discard: blob %q: %w", key, os.ErrNotExist)
}
func (d *discardStore) List(string) ([]string, error) { return nil, nil }
func (d *discardStore) Delete(string) error           { return nil }
func (d *discardStore) Append(string) (Appender, error) {
	return discardAppender{}, nil
}

type discardAppender struct{}

func (discardAppender) Write(p []byte) (int, error) { return len(p), nil }
func (discardAppender) Sync() error                 { return nil }
func (discardAppender) Close() error                { return nil }

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

// TestCompactAllocationBoundedBySlab: a compaction allocates its cut (one
// reference per page) and one slab buffer — not the pages again.
func TestCompactAllocationBoundedBySlab(t *testing.T) {
	const (
		pages    = 4096
		pageSize = 4096
		slab     = 64 << 10
	)
	blob := &discardStore{}
	l := mustOpen(t, Options{
		Blob: blob, PageSize: pageSize, SlabBytes: slab,
		Fsync: FsyncOff, InlineCompact: true, CompactBytes: -1,
	})
	defer l.Close()
	fillPages(t, l, pages, pageSize)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	if got := blob.bytes.Load(); got < pages*pageSize {
		t.Fatalf("snapshot wrote %d bytes, less than the %d of page data", got, pages*pageSize)
	}
	if want := int64(pages*pageSize/slab) + 1; blob.puts.Load() < want {
		t.Fatalf("snapshot made %d puts, want at least %d", blob.puts.Load(), want)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("Compact of %d pages allocated %d KiB", pages, grew>>10)
	if grew >= 2<<20 {
		t.Fatalf("Compact of %d MiB of pages allocated %d KiB, want < 2 MiB",
			pages*pageSize>>20, grew>>10)
	}
}

// hookStore runs onPut before every Put; an error from it fails the Put
// without touching the store.
type hookStore struct {
	BlobStore
	onPut func(key string) error
}

func (h *hookStore) Put(key string, data []byte) error {
	if h.onPut != nil {
		if err := h.onPut(key); err != nil {
			return err
		}
	}
	return h.BlobStore.Put(key, data)
}

// livePages collects the log's live pages through RangePages.
func livePages(l *Log) map[tmem.Key][]byte {
	got := make(map[tmem.Key][]byte)
	l.RangePages(func(k tmem.Key, d []byte) bool {
		got[k] = d
		return true
	})
	return got
}

func checkModel(t *testing.T, l *Log, want map[tmem.Key][]byte) {
	t.Helper()
	got := livePages(l)
	if len(got) != len(want) {
		t.Fatalf("log holds %d pages, model %d", len(got), len(want))
	}
	for k, d := range want {
		if g, ok := got[k]; !ok || !bytes.Equal(g, d) {
			t.Fatalf("page %v: present=%v, bytes differ from the model", k, ok)
		}
	}
}

// TestCompactFaultAtEveryPut fails the k-th blob Put of a compaction, for
// k over every slab and the manifest, and checks the failure is reported,
// harmless and cleaned up.
func TestCompactFaultAtEveryPut(t *testing.T) {
	injected := errors.New("injected put failure")
	newLog := func(h *hookStore) (*Log, map[tmem.Key][]byte) {
		opts := testOpts(h)
		opts.SlabBytes = 4096
		l := mustOpen(t, opts)
		return l, seededState(t, l)
	}

	// A clean compaction of the seeded state says how many Puts there are.
	total := 0
	h := &hookStore{BlobStore: NewMemStore(), onPut: func(string) error { total++; return nil }}
	l, _ := newLog(h)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if total < 3 {
		t.Fatalf("seeded state compacts in %d puts; the test needs several slabs", total)
	}

	for k := 1; k <= total; k++ {
		t.Run(fmt.Sprintf("put-%d-of-%d", k, total), func(t *testing.T) {
			mem := NewMemStore()
			n := 0
			h := &hookStore{BlobStore: mem}
			l, want := newLog(h)
			segsBefore, _ := listSegments(mem)
			h.onPut = func(string) error {
				if n++; n == k {
					return injected
				}
				return nil
			}

			err := l.Compact()
			if !errors.Is(err, injected) {
				t.Fatalf("Compact = %v, want the injected failure", err)
			}
			if st := l.Stats(); st.Errors != 1 || st.Compactions != 0 {
				t.Fatalf("after the failure: Errors=%d Compactions=%d, want 1 and 0", st.Errors, st.Compactions)
			}
			keys, _ := mem.List(snapshotPrefix)
			if len(keys) != k-1 {
				t.Fatalf("the failed snapshot left %d blobs, want the %d written before put %d", len(keys), k-1, k)
			}
			for _, key := range keys {
				if strings.HasSuffix(key, manifestName) {
					t.Fatalf("failed snapshot has a manifest: %s", key)
				}
			}
			segsAfter, _ := listSegments(mem)
			if len(segsAfter) != len(segsBefore)+1 { // the cut opened one, pruned none
				t.Fatalf("WAL segments %v -> %v: a failed compaction must prune nothing", segsBefore, segsAfter)
			}
			l.Close()

			// Recovery ignores the partial directory.
			h.onPut = nil
			l2 := mustOpen(t, testOpts(h))
			if ri := l2.Recovery(); ri.SnapshotLoaded {
				t.Fatalf("recovery loaded a snapshot that was never completed: %+v", ri)
			}
			checkModel(t, l2, want)

			// The next compaction succeeds and sweeps it away.
			if err := l2.Compact(); err != nil {
				t.Fatal(err)
			}
			keys, _ = mem.List(snapshotPrefix)
			dir := snapshotDir(l2.snapshotSeq) + "/"
			for _, key := range keys {
				if !strings.HasPrefix(key, dir) {
					t.Fatalf("blob %s survives outside the current snapshot %s", key, dir)
				}
			}
			l2.Close()
			l3 := mustOpen(t, testOpts(mem))
			defer l3.Close()
			if !l3.Recovery().SnapshotLoaded {
				t.Fatal("the completed snapshot was not used")
			}
			checkModel(t, l3, want)
		})
	}
}

// TestClosedLogHoldsNoPages: a closed handle must not pin the mirror —
// an in-process reopen would otherwise hold every page twice.
func TestClosedLogHoldsNoPages(t *testing.T) {
	for _, mode := range []string{"Close", "CloseClean"} {
		t.Run(mode, func(t *testing.T) {
			const pages, pageSize = 1024, 4096
			l := mustOpen(t, Options{
				Blob: &discardStore{}, PageSize: pageSize,
				Fsync: FsyncOff, InlineCompact: true, CompactBytes: -1,
			})
			fillPages(t, l, pages, pageSize)
			heap := func() uint64 {
				var ms runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			open := heap()
			var err error
			if mode == "Close" {
				err = l.Close()
			} else {
				err = l.CloseClean()
			}
			if err != nil {
				t.Fatal(err)
			}
			closed := heap()

			k := key(0, 0, 0)
			if l.Get(k, make([]byte, pageSize)) || l.Contains(k) {
				t.Error("a closed log still serves a page")
			}
			if n := len(livePages(l)); n != 0 {
				t.Errorf("RangePages on a closed log visited %d pages", n)
			}
			if st := l.Stats(); st.PagesLive != 0 || st.BytesLive != 0 {
				t.Errorf("closed log reports %d live pages, %d bytes", st.PagesLive, st.BytesLive)
			}
			if err := l.Put(k, make([]byte, pageSize)); err == nil {
				t.Error("Put on a closed log succeeded")
			}
			// The mirror was 4 MiB of page data; nearly all of it must be gone.
			if freed := int64(open) - int64(closed); freed < pages*pageSize*3/4 {
				t.Errorf("closing freed %d KiB of a %d KiB mirror", freed>>10, pages*pageSize>>10)
			}
			runtime.KeepAlive(l)
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
