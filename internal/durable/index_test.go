package durable

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"smartmem/internal/tmem"
)

func dirStore(t testing.TB) BlobStore {
	t.Helper()
	d, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// logModel is the reference the journal is held against: the pages a
// crash-proof map would hold, and the pools they may live in.
type logModel struct {
	pages map[tmem.Key][]byte
	pools map[tmem.PoolID]bool
}

func (m *logModel) dropPages(match func(tmem.Key) bool) {
	for k := range m.pages {
		if match(k) {
			delete(m.pages, k)
		}
	}
}

// TestLogMatchesMapModel drives seeded random histories — every mutation,
// compactions (some with writes racing the snapshot), crashes and clean
// shutdowns — against a plain map, with segments and slabs small enough
// that the index spans many blobs. A sampled Get after every step, and the
// full page stream and gauges after every compaction and reopen, must
// equal the model.
func TestLogMatchesMapModel(t *testing.T) {
	const pageSize = 96
	for _, store := range []struct {
		name  string
		make  func(testing.TB) BlobStore
		steps int
	}{
		{"mem", func(testing.TB) BlobStore { return NewMemStore() }, 3000},
		{"dir", dirStore, 300}, // every slab Put is an fsync
	} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed-%d", store.name, seed), func(t *testing.T) {
				h := &hookStore{BlobStore: store.make(t)}
				opts := Options{
					Blob: h, PageSize: pageSize, segmentBytes: 700, slabBytes: 400,
					Fsync: FsyncOff, InlineCompact: true, CompactBytes: -1,
				}
				rng := rand.New(rand.NewSource(seed))
				m := logModel{pages: make(map[tmem.Key][]byte), pools: make(map[tmem.PoolID]bool)}
				l := mustOpen(t, opts)
				defer func() { l.Close() }()
				nextPool := tmem.PoolID(0)

				anyKey := func() tmem.Key {
					return key(tmem.PoolID(rng.Intn(int(nextPool)+1)), tmem.ObjectID(rng.Intn(6)), tmem.PageIndex(rng.Intn(8)))
				}
				liveKey := func() tmem.Key { // a key in a journaled pool
					for {
						if k := anyKey(); m.pools[k.Pool] {
							return k
						}
					}
				}
				body := func() []byte {
					n := rng.Intn(pageSize + 1)
					switch rng.Intn(8) {
					case 0:
						n = 0
					case 1:
						n = pageSize
					}
					d := make([]byte, n)
					rng.Read(d)
					return d
				}
				check := func(err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
				}
				put := func(k tmem.Key) {
					d := body()
					check(l.Put(k, d))
					m.pages[k] = d
				}
				flushPage := func(k tmem.Key) {
					_, present := m.pages[k]
					removed, err := l.FlushPage(k)
					check(err)
					if removed != present {
						t.Fatalf("FlushPage(%v) removed=%v, the model held it: %v", k, removed, present)
					}
					delete(m.pages, k)
				}
				full := func() {
					t.Helper()
					checkModel(t, l, m.pages)
					var pools []tmem.PoolID
					for _, p := range l.Pools() {
						pools = append(pools, p.ID)
					}
					if len(pools) != len(m.pools) {
						t.Fatalf("log has pools %v, model %v", pools, m.pools)
					}
				}
				reopen := func(clean bool) {
					t.Helper()
					if clean {
						check(l.CloseClean())
					} else {
						check(l.Close())
					}
					l = mustOpen(t, opts)
					if ri := l.Recovery(); ri.CleanShutdown != clean || ri.CorruptRecords != 0 || ri.TornTail {
						t.Fatalf("reopen (clean=%v): %+v", clean, ri)
					}
					full()
				}

				for step := 0; step < store.steps; step++ {
					if len(m.pools) == 0 {
						check(l.NewPool(nextPool, 1, tmem.Persistent))
						m.pools[nextPool] = true
						nextPool++
					}
					switch r := rng.Intn(100); {
					case r < 2:
						check(l.NewPool(nextPool, tmem.VMID(r), tmem.Persistent))
						m.pools[nextPool] = true
						nextPool++
					case r < 45:
						put(liveKey())
					case r < 60: // a batch may name a key twice: the later page wins
						keys := make([]tmem.Key, 1+rng.Intn(8))
						datas := make([][]byte, len(keys))
						for i := range keys {
							keys[i], datas[i] = liveKey(), body()
						}
						check(l.PutBatch(keys, datas, make([]tmem.Status, len(keys))))
						for i, k := range keys {
							m.pages[k] = datas[i]
						}
					case r < 72:
						flushPage(anyKey())
					case r < 77:
						k := anyKey()
						_, err := l.FlushObject(k.Pool, k.Object)
						check(err)
						m.dropPages(func(p tmem.Key) bool { return p.Pool == k.Pool && p.Object == k.Object })
					case r < 79:
						k := anyKey()
						check(l.DropPool(k.Pool))
						delete(m.pools, k.Pool)
						m.dropPages(func(p tmem.Key) bool { return p.Pool == k.Pool })
					case r < 83:
						check(l.Compact())
						full()
					case r < 86:
						// The interleaving the re-point exists for: between the
						// cut and the re-point (here: as the first slab goes out)
						// one page is overwritten, one flushed, one created.
						first := true
						h.onPut = func(string) error {
							if first && len(m.pools) > 0 {
								first = false
								for k := range m.pages {
									put(k)
									break
								}
								for k := range m.pages {
									flushPage(k)
									break
								}
								put(liveKey())
							}
							return nil
						}
						check(l.Compact())
						h.onPut = nil
						full()
						reopen(false) // the snapshot plus the racing tail
					case r < 89:
						reopen(false)
					case r < 91:
						reopen(true)
					}

					k := anyKey()
					dst := bytes.Repeat([]byte{0xAA}, pageSize)
					want, present := m.pages[k]
					if got := l.Get(k, dst); got != present {
						t.Fatalf("step %d: Get(%v) = %v, model has it: %v", step, k, got, present)
					}
					if present && (!bytes.Equal(dst[:len(want)], want) || !bytes.Equal(dst[len(want):], make([]byte, pageSize-len(want)))) {
						t.Fatalf("step %d: Get(%v) returned other bytes than were put", step, k)
					}
				}
				full()
				reopen(true)
				if st := l.Stats(); st.Errors != 0 {
					t.Fatalf("errors over a fault-free history: %+v", st)
				}
			})
		}
	}
}

// TestLogHoldsNoPageBytes: 32 MiB of pages go through the journal and its
// heap grows by the index alone (about 22 B a page) — through the puts,
// and again once a compaction has read every page back and let go of it.
func TestLogHoldsNoPageBytes(t *testing.T) {
	const pages, pageSize = 8192, 4096
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	l := mustOpen(t, Options{
		Blob: dirStore(t), PageSize: pageSize,
		Fsync: FsyncOff, InlineCompact: true, CompactBytes: -1,
	})
	defer l.Close()
	before := heap()
	fillPages(t, l, pages, pageSize)
	for _, stage := range []string{"puts", "compaction"} {
		if stage == "compaction" {
			if err := l.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		grew := int64(heap()) - int64(before)
		t.Logf("after the %s: heap grew %d KiB for %d MiB of pages", stage, grew>>10, pages*pageSize>>20)
		if grew >= 2<<20 {
			t.Fatalf("after the %s the heap grew %d KiB, want under 2 MiB: the journal is keeping pages", stage, grew>>10)
		}
	}
	dst := make([]byte, pageSize)
	for _, i := range []int{0, 4097, pages - 1} {
		if !l.Get(key(0, tmem.ObjectID(i/64), tmem.PageIndex(i%64)), dst) || dst[0] != byte(i) || dst[1] != byte(i>>8) {
			t.Fatalf("page %d does not read back", i)
		}
	}
	runtime.KeepAlive(l)
}

// TestIndexHeapPerKey bounds what the journal's index costs a key, for one
// object's consecutive pages and for one page per object, a key alone in
// its run that pays for a whole leaf. The pages are empty and the blobs on
// disk, so the heap grows by the index alone. The bounds hold it under the
// two-level map it replaced: 52 bytes a dense key, 309 a key alone in its
// object.
func TestIndexHeapPerKey(t *testing.T) {
	const n = 1 << 14
	for _, c := range []struct {
		name string
		key  func(i int) tmem.Key
		max  float64
	}{
		{"dense", func(i int) tmem.Key { return key(0, 1, tmem.PageIndex(i)) }, 32},
		{"object-per-key", func(i int) tmem.Key { return key(0, tmem.ObjectID(i), 0) }, 240},
	} {
		blob := dirStore(t)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		l := mustOpen(t, Options{Blob: blob, PageSize: 4096, Fsync: FsyncOff, InlineCompact: true, CompactBytes: -1})
		if err := l.NewPool(0, 1, tmem.Persistent); err != nil {
			t.Fatal(err)
		}
		for i := range n {
			if err := l.Put(c.key(i), nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(l)
		got := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
		t.Logf("%s: %.1f heap bytes per key", c.name, got)
		if got > c.max {
			t.Errorf("%s: %.0f heap bytes per key, want <= %.0f", c.name, got, c.max)
		}
		l.Close()
	}
}

// blockSyncStore blocks the first Appender.Sync after arm until released.
type blockSyncStore struct {
	BlobStore
	once             sync.Once
	armed            chan struct{}
	entered, release chan struct{}
}

func (b *blockSyncStore) Append(key string) (Appender, error) {
	a, err := b.BlobStore.Append(key)
	return blockSyncAppender{a, b}, err
}

type blockSyncAppender struct {
	Appender
	b *blockSyncStore
}

func (a blockSyncAppender) Sync() error {
	select {
	case <-a.b.armed:
		a.b.once.Do(func() {
			close(a.b.entered)
			<-a.b.release
		})
	default:
	}
	return a.Appender.Sync()
}

// TestCompactSealsOutsideTheLock: while a compaction's fsync of the segment
// it sealed is in flight, the commit lock is free — a Put and a Get
// complete — and the snapshot waits for the seal.
func TestCompactSealsOutsideTheLock(t *testing.T) {
	mem := NewMemStore()
	b := &blockSyncStore{
		BlobStore: mem, armed: make(chan struct{}),
		entered: make(chan struct{}), release: make(chan struct{}),
	}
	opts := testOpts(b)
	opts.Fsync = FsyncInterval // seals sync; puts do not wait for one
	opts.fsyncEvery = time.Hour
	opts.InlineCompact = false // CompactBytes < 0: no background loop
	l := mustOpen(t, opts)
	want := seedLog(t, l, 0, 16)

	close(b.armed)
	compacted := make(chan error, 1)
	go func() { compacted <- l.Compact() }()
	<-b.entered

	extra := key(0, 7, 7)
	put := make(chan error, 1)
	go func() { put <- l.Put(extra, page(0x5A)) }()
	select {
	case err := <-put:
		if err != nil {
			t.Fatal(err)
		}
		want[extra] = page(0x5A)
	case <-time.After(10 * time.Second):
		t.Fatal("a Put waited for the sealed segment's fsync")
	}
	checkPages(t, l, want)
	if blobs, _ := mem.List(snapshotPrefix); len(blobs) != 0 {
		t.Fatalf("snapshot blobs %v written before the sealed segment was durable", blobs)
	}

	close(b.release)
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	checkModel(t, l, want)
	l.Close()
	l2 := mustOpen(t, testOpts(mem))
	defer l2.Close()
	if !l2.Recovery().SnapshotLoaded {
		t.Fatal("the compaction left no snapshot")
	}
	checkModel(t, l2, want)
}

// --- the parent commit's on-disk fixture ---

const fixturePageSize = 64

func fixtureOpts(blob BlobStore) Options {
	return Options{
		Blob: blob, PageSize: fixturePageSize, segmentBytes: 512, slabBytes: 512,
		Fsync: FsyncOff, InlineCompact: true, CompactBytes: -1,
	}
}

// fixtureHistory is the history testdata/parent-dirstore was written with,
// by the commit before the journal dropped its in-memory page copies:
// forty puts, a compaction, then overwrites, a batch, flushes and pool
// churn in the WAL on top, closed un-cleanly. It returns what must be live.
func fixtureHistory(t testing.TB, l *Log) map[tmem.Key][]byte {
	t.Helper()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[tmem.Key][]byte)
	body := func(i int) []byte {
		d := make([]byte, (i*13)%(fixturePageSize+1))
		for j := range d {
			d[j] = byte(i*31 + j*7)
		}
		return d
	}
	put := func(k tmem.Key, i int) {
		d := body(i)
		check(l.Put(k, d))
		want[k] = d
	}
	check(l.NewPool(3, 30, tmem.Persistent))
	check(l.NewPool(1, 10, tmem.Persistent))
	for i := 0; i < 40; i++ {
		put(key(tmem.PoolID(1+2*(i%2)), tmem.ObjectID(i%5), tmem.PageIndex(i/5)), i)
	}
	check(l.Compact())
	for i := 40; i < 52; i++ { // overwrites and new keys on top of the snapshot
		put(key(tmem.PoolID(1+2*(i%2)), tmem.ObjectID(i%5), tmem.PageIndex(i%9)), i)
	}
	keys := []tmem.Key{key(3, 9, 0), key(3, 9, 1), key(1, 9, 2)}
	datas := [][]byte{body(60), body(61), body(62)}
	check(l.PutBatch(keys, datas, make([]tmem.Status, len(keys))))
	for i, k := range keys {
		want[k] = datas[i]
	}
	for _, k := range []tmem.Key{key(1, 0, 0), key(3, 1, 0), key(3, 9, 1)} {
		_, err := l.FlushPage(k)
		check(err)
		delete(want, k)
	}
	_, err := l.FlushObject(1, 2)
	check(err)
	for k := range want {
		if k.Pool == 1 && k.Object == 2 {
			delete(want, k)
		}
	}
	check(l.NewPool(8, 80, tmem.Persistent))
	put(key(8, 0, 0), 70)
	check(l.DropPool(8))
	delete(want, key(8, 0, 0))
	check(l.NewPool(5, 50, tmem.Persistent))
	put(key(5, 1, 1), 71)
	return want
}

// update rewrites testdata/dirstore from fixtureHistory.
var update = flag.Bool("update", false, "rewrite testdata/dirstore")

// TestParentFixture: the on-disk format did not move in either direction.
// This commit recovers testdata/parent-dirstore, written before compactions
// linked blobs, and writes testdata/dirstore for the same history, byte for
// byte; every slab in it that the compaction linked is byte for byte the
// blob it was linked from.
func TestParentFixture(t *testing.T) {
	const fixture = "testdata/parent-dirstore"
	dir := t.TempDir() // Open writes: a fresh segment, repairs
	if err := os.CopyFS(dir, os.DirFS(fixture)); err != nil {
		t.Fatal(err)
	}
	blob, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	const pinned = "testdata/dirstore"
	rewritten := dirStore(t)
	linked := make(map[string][]byte) // slab key -> the bytes of the blob linked to it
	h := &hookStore{BlobStore: rewritten, onLink: func(src, dst string) error {
		b, err := rewritten.Get(src)
		linked[dst] = b
		return err
	}}
	wl := mustOpen(t, fixtureOpts(h))
	want := fixtureHistory(t, wl)
	if err := wl.Close(); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.RemoveAll(pinned); err != nil {
			t.Fatal(err)
		}
		if err := os.CopyFS(pinned, os.DirFS(rewritten.(*DirStore).Root())); err != nil {
			t.Fatal(err)
		}
	}
	pinnedStore, err := NewDirStore(pinned)
	if err != nil {
		t.Fatal(err)
	}
	blobs, _ := rewritten.List("")
	pinnedBlobs, _ := pinnedStore.List("")
	if !slices.Equal(blobs, pinnedBlobs) {
		t.Fatalf("this commit writes blobs %v, %s holds %v", blobs, pinned, pinnedBlobs)
	}
	for _, k := range blobs {
		got, _ := rewritten.Get(k)
		fixed, err := pinnedStore.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fixed) {
			t.Errorf("blob %s: this commit writes %d bytes that differ from the %d in %s", k, len(got), len(fixed), pinned)
		}
	}
	if len(linked) == 0 {
		t.Fatal("the history's compaction linked no blob")
	}
	for k, src := range linked {
		if fixed, err := pinnedStore.Get(k); err != nil || !bytes.Equal(fixed, src) {
			t.Errorf("linked slab %s in %s: %d bytes, not the %d of the blob it was linked from (%v)", k, pinned, len(fixed), len(src), err)
		}
	}

	l := mustOpen(t, fixtureOpts(blob))
	ri := l.Recovery()
	if !ri.SnapshotLoaded || ri.SnapshotPages != 40 || ri.WALRecords == 0 || ri.TornTail || ri.CorruptRecords != 0 {
		t.Fatalf("recovery of the parent's directory: %+v", ri)
	}
	checkModel(t, l, want)
	var pools []tmem.PoolID
	for _, p := range l.Pools() {
		pools = append(pools, p.ID)
	}
	if !slices.Equal(pools, []tmem.PoolID{1, 3, 5}) {
		t.Fatalf("recovered pools %v, want [1 3 5]", pools)
	}
	// And carries on from it: compact what the parent wrote, reopen.
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	checkModel(t, l, want)
	if err := l.CloseClean(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, fixtureOpts(blob))
	defer l2.Close()
	checkModel(t, l2, want)
}

// openCounter counts the blob opens made through it.
type openCounter struct {
	BlobStore
	opens int
}

func (c *openCounter) Open(key string) (BlobReader, error) {
	c.opens++
	return c.BlobStore.Open(key)
}

// TestPageReaderOpensRepeat: a pass over more blobs than a pageReader keeps
// open evicts a fixed handle, so identical passes make the same number of
// Opens. The pages are written round-robin over the objects, so a pass in
// key order hops across every WAL segment once per object.
func TestPageReaderOpensRepeat(t *testing.T) {
	const objects, rounds = 4, 3 * maxOpenBlobs
	blob := &openCounter{BlobStore: NewMemStore()}
	opts := testOpts(blob)
	opts.segmentBytes = 2 * int64(putRecordLen(testPageSize)) // two pages a segment
	l := mustOpen(t, opts)
	defer l.Close()
	if err := l.NewPool(0, 1, tmem.Persistent); err != nil {
		t.Fatal(err)
	}
	for r := range rounds {
		for o := range objects {
			if err := l.Put(key(0, tmem.ObjectID(o), tmem.PageIndex(r)), page(byte(r))); err != nil {
				t.Fatal(err)
			}
		}
	}
	var opens []int
	for range 4 {
		blob.opens = 0
		if err := l.RangePages(func(tmem.Key, []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
		opens = append(opens, blob.opens)
	}
	if segs := objects * rounds / 2; opens[0] <= segs {
		t.Fatalf("a pass opened %d blobs, want more than the %d segments: no handle was evicted", opens[0], segs)
	}
	if slices.Min(opens) != slices.Max(opens) {
		t.Fatalf("identical passes made %v Opens, want one count", opens)
	}
}
