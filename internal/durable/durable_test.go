package durable

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"smartmem/internal/tmem"
)

const testPageSize = 256

func testOpts(blob BlobStore) Options {
	return Options{
		Blob:          blob,
		PageSize:      testPageSize,
		Fsync:         FsyncOff,
		InlineCompact: true,
		CompactBytes:  -1, // no automatic compaction unless the test asks
	}
}

func mustOpen(t testing.TB, opts Options) *Log {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func page(b byte) []byte {
	p := make([]byte, testPageSize)
	for i := range p {
		p[i] = b ^ byte(i)
	}
	return p
}

func key(pool tmem.PoolID, obj tmem.ObjectID, idx tmem.PageIndex) tmem.Key {
	return tmem.Key{Pool: pool, Object: obj, Index: idx}
}

// seedLog journals one pool and n pages, returning the expected contents.
func seedLog(t testing.TB, l *Log, pool tmem.PoolID, n int) map[tmem.Key][]byte {
	t.Helper()
	if err := l.NewPool(pool, 1, tmem.Persistent); err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	want := make(map[tmem.Key][]byte, n)
	for i := 0; i < n; i++ {
		k := key(pool, tmem.ObjectID(i/8), tmem.PageIndex(i%8))
		d := page(byte(i))
		if err := l.Put(k, d); err != nil {
			t.Fatalf("Put %v: %v", k, err)
		}
		want[k] = d
	}
	return want
}

// checkPages asserts the log holds exactly the expected pages, byte for
// byte.
func checkPages(t *testing.T, l *Log, want map[tmem.Key][]byte) {
	t.Helper()
	if got := l.PagesLive(); got != uint64(len(want)) {
		t.Fatalf("PagesLive = %d, want %d", got, len(want))
	}
	dst := make([]byte, testPageSize)
	for k, d := range want {
		if !l.Get(k, dst) {
			t.Fatalf("page %v missing", k)
		}
		if !bytes.Equal(dst, d) {
			t.Fatalf("page %v bytes differ", k)
		}
	}
}

func TestLogRoundTripReopen(t *testing.T) {
	blob := NewMemStore()
	l := mustOpen(t, testOpts(blob))
	want := seedLog(t, l, 0, 40)

	// Overwrite one page, flush another, flush a whole object.
	over := key(0, 0, 0)
	want[over] = page(0xEE)
	if err := l.Put(over, want[over]); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	fl := key(0, 1, 3)
	if removed, err := l.FlushPage(fl); err != nil || !removed {
		t.Fatalf("FlushPage = %v, %v", removed, err)
	}
	delete(want, fl)
	if n, err := l.FlushObject(0, 2); err != nil || n != 8 {
		t.Fatalf("FlushObject = %d, %v", n, err)
	}
	for k := range want {
		if k.Object == 2 {
			delete(want, k)
		}
	}
	checkPages(t, l, want)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Crash-style reopen: full WAL replay.
	l2 := mustOpen(t, testOpts(blob))
	defer l2.Close()
	ri := l2.Recovery()
	if ri.CleanShutdown || ri.SnapshotLoaded || ri.TornTail || ri.CorruptRecords != 0 {
		t.Fatalf("unexpected recovery info: %+v", ri)
	}
	if ri.WALRecords == 0 {
		t.Fatalf("no WAL records replayed: %+v", ri)
	}
	checkPages(t, l2, want)
}

func TestDropPoolReopen(t *testing.T) {
	blob := NewMemStore()
	l := mustOpen(t, testOpts(blob))
	seedLog(t, l, 0, 8)
	if err := l.NewPool(1, 2, tmem.Persistent); err != nil {
		t.Fatal(err)
	}
	keep := key(1, 0, 0)
	if err := l.Put(keep, page(9)); err != nil {
		t.Fatal(err)
	}
	if err := l.DropPool(0); err != nil {
		t.Fatalf("DropPool: %v", err)
	}
	l.Close()

	l2 := mustOpen(t, testOpts(blob))
	defer l2.Close()
	if l2.HasPool(0) {
		t.Fatal("dropped pool survived reopen")
	}
	checkPages(t, l2, map[tmem.Key][]byte{keep: page(9)})
}

func TestEphemeralPoolsNotJournaled(t *testing.T) {
	l := mustOpen(t, testOpts(NewMemStore()))
	defer l.Close()
	if err := l.NewPool(0, 1, tmem.Ephemeral); err != nil {
		t.Fatalf("ephemeral NewPool: %v", err)
	}
	if l.HasPool(0) {
		t.Fatal("ephemeral pool was journaled")
	}
	// The log journals only the pools it holds: it skips the page.
	if err := l.Put(key(0, 0, 0), page(1)); err != nil {
		t.Fatalf("put into an unjournaled pool: %v, want it skipped", err)
	}
	if l.Contains(key(0, 0, 0)) || l.Stats().Appends != 0 {
		t.Fatal("a page of an unjournaled pool was journaled")
	}
}

func TestDirStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	blob, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts(blob)
	opts.Fsync = FsyncAlways
	l := mustOpen(t, opts)
	want := seedLog(t, l, 0, 24)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	blob2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, testOpts(blob2))
	defer l2.Close()
	checkPages(t, l2, want)
	if st := l2.Stats(); st.Errors != 0 {
		t.Fatalf("errors after round trip: %+v", st)
	}
}

func TestDirStoreRejectsEscapingKeys(t *testing.T) {
	blob, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "/abs", "../escape", "wal/../../x"} {
		if err := blob.Put(k, []byte("x")); err == nil {
			t.Fatalf("key %q accepted", k)
		}
	}
}

// DirStore.List walks only the prefix's directory, with the output of a
// filter over every key: MemStore's, for the same keys. In-flight temp
// files stay hidden and a prefix naming no directory lists nothing.
func TestDirStoreListScoped(t *testing.T) {
	dir := t.TempDir()
	blob, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	model := NewMemStore()
	for _, k := range []string{
		"memo/aa", "memo/bb", "memo-series/aa", "memo-pack/cc", "memox",
		"snapshot/0000000000000006/MANIFEST", "snapshot/0000000000000006/0000.slab",
		"snapshot/0000000000000007/0000.slab", "wal/0000000000000006.log", "wal/0000000000000007.log",
	} {
		if err := blob.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
		if err := model.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tmp := range []string{"memo/.tmp-1", "wal/.tmp-2", ".tmp-3"} {
		if err := os.WriteFile(filepath.Join(dir, tmp), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, prefix := range []string{
		"", "memo", "memo/", "memo/a", "memo-pack/", "snapshot/0000000000000006",
		"snapshot/0000000000000006/", "snapshot/", "wal/", "nope/", "nope/deeper/x", "memo/aa/x",
	} {
		got, err := blob.List(prefix)
		if err != nil {
			t.Errorf("List(%q): %v", prefix, err)
			continue
		}
		want, _ := model.List(prefix)
		if !slices.Equal(got, want) {
			t.Errorf("List(%q) = %q, want %q", prefix, got, want)
		}
	}
}

// TestDirStoreDeleteDropsEmptyDirs: the prune takes the snapshot
// directories it empties with it, so ten compactions leave one directory
// under snapshot/ for List and Open to walk. Delete never removes the
// root, and a Put or an Append into a removed directory makes it again.
func TestDirStoreDeleteDropsEmptyDirs(t *testing.T) {
	dir := t.TempDir()
	blob, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, testOpts(blob))
	want := seedLog(t, l, 0, 16)
	for i := 0; i < 10; i++ {
		k := key(0, 0, tmem.PageIndex(i%8))
		want[k] = page(byte(100 + i))
		if err := l.Put(k, want[k]); err != nil {
			t.Fatal(err)
		}
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	snaps, err := os.ReadDir(filepath.Join(dir, "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("ten compactions leave %d directories under snapshot/, want 1", len(snaps))
	}
	l2 := mustOpen(t, testOpts(blob))
	checkPages(t, l2, want)
	l2.Close()

	for _, k := range []string{"a/x", "CLEAN", "absent/y"} {
		if err := blob.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"a/x", "CLEAN", "absent/y", "absent/y", "never/z"} {
		if err := blob.Delete(k); err != nil {
			t.Fatalf("Delete(%q): %v", k, err)
		}
	}
	for _, gone := range []string{"a", "absent"} {
		if _, err := os.Stat(filepath.Join(dir, gone)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("directory %s outlives its last key: %v", gone, err)
		}
	}
	if err := blob.Put("a/x", []byte("again")); err != nil {
		t.Fatal(err)
	}
	app, err := blob.Append("absent/y")
	if err != nil {
		t.Fatal(err)
	}
	app.Close()

	root, err := NewDirStore(filepath.Join(dir, "root"))
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Put("k", nil); err != nil {
		t.Fatal(err)
	}
	if err := root.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(root.Root()); err != nil {
		t.Fatalf("Delete of the last key removed the root: %v", err)
	}
}

// TestBlobStoreLink: a linked name reads the source's bytes, replaces what
// it named before and outlives the source. On MemStore, whose link shares
// the source's slice, a later append to either name stays its own.
func TestBlobStoreLink(t *testing.T) {
	for _, store := range []struct {
		name string
		make func(testing.TB) BlobStore
	}{
		{"mem", func(testing.TB) BlobStore { return NewMemStore() }},
		{"dir", dirStore},
	} {
		t.Run(store.name, func(t *testing.T) {
			blob := store.make(t)
			app, err := blob.Append("wal/src")
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range []string{"sealed ", "bytes"} { // two writes: spare capacity behind MemStore's slice
				if _, err := app.Write([]byte(b)); err != nil {
					t.Fatal(err)
				}
			}
			app.Close()
			if err := blob.Put("snapshot/dst", []byte("old")); err != nil {
				t.Fatal(err)
			}
			if err := blob.Link("wal/src", "snapshot/dst"); err != nil {
				t.Fatal(err)
			}
			if err := blob.Link("wal/absent", "snapshot/x"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("Link of an absent blob = %v, want ErrNotExist", err)
			}
			read := func(key, want string) {
				t.Helper()
				if got, err := blob.Get(key); err != nil || string(got) != want {
					t.Fatalf("%s reads %q, %v; want %q", key, got, err, want)
				}
			}
			read("snapshot/dst", "sealed bytes")
			if store.name == "mem" {
				for k, b := range map[string]string{"wal/src": "+", "snapshot/dst": "!"} {
					app, err := blob.Append(k)
					if err != nil {
						t.Fatal(err)
					}
					app.Write([]byte(b))
				}
				read("snapshot/dst", "sealed bytes!")
				read("wal/src", "sealed bytes+")
			}
			if err := blob.Delete("wal/src"); err != nil {
				t.Fatal(err)
			}
			if _, err := blob.Get("wal/src"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("the deleted source still reads: %v", err)
			}
			if store.name == "dir" {
				read("snapshot/dst", "sealed bytes")
			}
		})
	}
}

// lastSegment returns the highest-sequence WAL segment key in the store.
func lastSegment(t *testing.T, blob BlobStore) string {
	t.Helper()
	seqs, err := listSegments(blob)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("listSegments = %v, %v", seqs, err)
	}
	return segKey(seqs[len(seqs)-1])
}

func TestRecoveryTornTail(t *testing.T) {
	blob := NewMemStore()
	l := mustOpen(t, testOpts(blob))
	want := seedLog(t, l, 0, 10)
	last := key(0, 9, 9)
	if err := l.Put(last, page(0xAB)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Tear the final record: every truncation length from 1 byte up to
	// the whole record must recover the prefix without error.
	seg := lastSegment(t, blob)
	full, _ := blob.Get(seg)
	recLen := recHeaderLen + 1 + keyWireLen + 4 + testPageSize
	for cut := 1; cut <= recLen; cut += 37 {
		blob.Put(seg, full[:len(full)-cut])
		l2 := mustOpen(t, testOpts(blob))
		ri := l2.Recovery()
		if !ri.TornTail {
			t.Fatalf("cut %d: torn tail not detected: %+v", cut, ri)
		}
		if ri.CorruptRecords != 0 {
			t.Fatalf("cut %d: torn tail miscounted as corruption", cut)
		}
		if l2.Contains(last) {
			t.Fatalf("cut %d: torn record partially applied", cut)
		}
		checkPages(t, l2, want)

		// New writes after a torn-tail recovery land in a fresh segment
		// and survive the next reopen.
		extra := key(0, 50, 0)
		if err := l2.Put(extra, page(0x77)); err != nil {
			t.Fatalf("cut %d: post-recovery put: %v", cut, err)
		}
		l2.Close()
		l3 := mustOpen(t, testOpts(blob))
		if !l3.Contains(extra) {
			t.Fatalf("cut %d: post-recovery write lost", cut)
		}
		l3.Close()

		// Reset for the next cut: restore the original segment bytes and
		// drop the segments the probe added.
		segs, _ := listSegments(blob)
		for _, s := range segs {
			if segKey(s) != seg {
				blob.Delete(segKey(s))
			}
		}
		blob.Put(seg, full)
	}
}

func TestRecoveryCorruptChecksumMidLog(t *testing.T) {
	blob := NewMemStore()
	opts := testOpts(blob)
	opts.segmentBytes = 1024 // force several segments
	l := mustOpen(t, opts)
	seedLog(t, l, 0, 64)
	l.Close()

	seqs, _ := listSegments(blob)
	if len(seqs) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(seqs))
	}
	// Flip a payload byte in the middle of the FIRST segment: replay must
	// stop there (prefix consistency), count the corruption, not panic and
	// not apply anything from later segments.
	first := segKey(seqs[0])
	blob.Corrupt(first, func(b []byte) []byte {
		b[len(b)/2] ^= 0xFF
		return b
	})
	l2 := mustOpen(t, testOpts(blob))
	defer l2.Close()
	ri := l2.Recovery()
	if ri.CorruptRecords == 0 {
		t.Fatalf("mid-log corruption not detected: %+v", ri)
	}
	if ri.TornTail {
		t.Fatalf("mid-log corruption misreported as torn tail: %+v", ri)
	}
	if got := l2.PagesLive(); got >= 64 {
		t.Fatalf("replay did not stop at corruption: %d pages", got)
	}
}

func TestRecoveryEmptySegments(t *testing.T) {
	blob := NewMemStore()
	l := mustOpen(t, testOpts(blob))
	want := seedLog(t, l, 0, 5)
	l.Close()
	// Each reopen starts a fresh (possibly never-written) segment; several
	// in a row must replay cleanly.
	for i := 0; i < 3; i++ {
		l = mustOpen(t, testOpts(blob))
		checkPages(t, l, want)
		l.Close()
	}
	// And an explicitly empty blob too.
	blob.Put(segKey(999), nil)
	l = mustOpen(t, testOpts(blob))
	defer l.Close()
	checkPages(t, l, want)
}

func TestSnapshotNewerThanWAL(t *testing.T) {
	blob := NewMemStore()
	l := mustOpen(t, testOpts(blob))
	want := seedLog(t, l, 0, 20)
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	l.Close()

	// Delete every WAL segment, leaving only the snapshot: the manifest's
	// resume point now names segments that do not exist.
	seqs, _ := listSegments(blob)
	for _, s := range seqs {
		blob.Delete(segKey(s))
	}
	l2 := mustOpen(t, testOpts(blob))
	defer l2.Close()
	ri := l2.Recovery()
	if !ri.SnapshotLoaded || ri.WALSegments != 0 || ri.TornTail || ri.CorruptRecords != 0 {
		t.Fatalf("unexpected recovery info: %+v", ri)
	}
	checkPages(t, l2, want)
}

func TestCompactionPrunesAndPreserves(t *testing.T) {
	blob := NewMemStore()
	opts := testOpts(blob)
	opts.segmentBytes = 2048
	opts.CompactBytes = 8192
	l := mustOpen(t, opts)
	want := seedLog(t, l, 0, 120)
	st := l.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no automatic compaction after %d WAL bytes", st.AppendedBytes)
	}
	if st.SnapshotPages == 0 {
		t.Fatal("snapshot empty")
	}
	// The WAL must have been pruned to the post-snapshot tail.
	seqs, _ := listSegments(blob)
	if len(seqs) > 3 {
		t.Fatalf("WAL not pruned: %d segments", len(seqs))
	}
	l.Close()

	l2 := mustOpen(t, testOpts(blob))
	defer l2.Close()
	if !l2.Recovery().SnapshotLoaded {
		t.Fatalf("snapshot not used: %+v", l2.Recovery())
	}
	checkPages(t, l2, want)
}

func TestCleanShutdownMarker(t *testing.T) {
	blob := NewMemStore()
	l := mustOpen(t, testOpts(blob))
	want := seedLog(t, l, 0, 30)
	if err := l.CloseClean(); err != nil {
		t.Fatalf("CloseClean: %v", err)
	}
	if _, err := blob.Get("CLEAN"); err != nil {
		t.Fatalf("no CLEAN marker: %v", err)
	}

	l2 := mustOpen(t, testOpts(blob))
	ri := l2.Recovery()
	if !ri.CleanShutdown {
		t.Fatalf("warm restart not detected: %+v", ri)
	}
	if ri.WALRecords != 0 {
		t.Fatalf("clean restart replayed %d WAL records", ri.WALRecords)
	}
	checkPages(t, l2, want)
	// The marker is consumed: a crash after this boot must replay.
	if _, err := blob.Get("CLEAN"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("CLEAN marker not consumed: %v", err)
	}
	extra := key(0, 40, 0)
	if err := l2.Put(extra, page(0x55)); err != nil {
		t.Fatal(err)
	}
	want[extra] = page(0x55)
	l2.Close() // crash-style

	l3 := mustOpen(t, testOpts(blob))
	defer l3.Close()
	if l3.Recovery().CleanShutdown {
		t.Fatal("crash misdetected as clean shutdown")
	}
	checkPages(t, l3, want)
}

func TestPutBatchGroupCommit(t *testing.T) {
	blob := NewMemStore()
	opts := testOpts(blob)
	opts.Fsync = FsyncAlways
	l := mustOpen(t, opts)
	if err := l.NewPool(0, 1, tmem.Persistent); err != nil {
		t.Fatal(err)
	}
	keys := make([]tmem.Key, 32)
	datas := make([][]byte, 32)
	want := make(map[tmem.Key][]byte)
	for i := range keys {
		keys[i] = key(0, 1, tmem.PageIndex(i))
		datas[i] = page(byte(i + 100))
		want[keys[i]] = datas[i]
	}
	if err := l.PutBatch(keys, datas, make([]tmem.Status, len(keys))); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	st := l.Stats()
	if st.Appends != 33 { // newpool + 32 puts
		t.Fatalf("Appends = %d, want 33", st.Appends)
	}
	if st.Fsyncs > 2 {
		t.Fatalf("batch did not group-commit: %d fsyncs", st.Fsyncs)
	}
	l.Close()
	l2 := mustOpen(t, testOpts(blob))
	defer l2.Close()
	checkPages(t, l2, want)
}

func TestFsyncPolicies(t *testing.T) {
	for _, spec := range []struct {
		in   string
		want FsyncPolicy
	}{{"always", FsyncAlways}, {"interval", FsyncInterval}, {"off", FsyncOff}} {
		got, err := ParseFsync(spec.in)
		if err != nil || got != spec.want {
			t.Fatalf("ParseFsync(%q) = %v, %v", spec.in, got, err)
		}
		if got.String() != spec.in {
			t.Fatalf("String() = %q, want %q", got.String(), spec.in)
		}
	}
	if _, err := ParseFsync("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}

	blob := NewMemStore()
	opts := testOpts(blob)
	opts.Fsync = FsyncAlways
	l := mustOpen(t, opts)
	seedLog(t, l, 0, 4)
	if st := l.Stats(); st.Fsyncs == 0 {
		t.Fatal("FsyncAlways issued no fsyncs")
	}
	l.Close()

	opts = testOpts(NewMemStore())
	opts.Fsync = FsyncInterval
	opts.fsyncEvery = time.Millisecond
	opts.InlineCompact = false
	opts.CompactBytes = 0 // default
	l = mustOpen(t, opts)
	seedLog(t, l, 0, 4)
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Fsyncs == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if l.Stats().Fsyncs == 0 {
		t.Fatal("FsyncInterval never synced")
	}
	l.Close()
}

// failStore wraps a BlobStore and fails every Append write after a budget
// of successful bytes — the blob-outage double.
type failStore struct {
	BlobStore
	budget int
}

func (f *failStore) Append(key string) (Appender, error) {
	a, err := f.BlobStore.Append(key)
	if err != nil {
		return nil, err
	}
	return &failAppender{inner: a, store: f}, nil
}

type failAppender struct {
	inner Appender
	store *failStore
}

func (a *failAppender) Write(p []byte) (int, error) {
	if a.store.budget <= 0 {
		return 0, errors.New("simulated blob outage")
	}
	a.store.budget -= len(p)
	return a.inner.Write(p)
}
func (a *failAppender) Sync() error  { return a.inner.Sync() }
func (a *failAppender) Close() error { return a.inner.Close() }

func TestAppendFailureSurfacesAndCounts(t *testing.T) {
	fs := &failStore{BlobStore: NewMemStore(), budget: 2048}
	l := mustOpen(t, testOpts(fs))
	defer l.Close()
	if err := l.NewPool(0, 1, tmem.Persistent); err != nil {
		t.Fatal(err)
	}
	var firstErr error
	for i := 0; i < 64 && firstErr == nil; i++ {
		firstErr = l.Put(key(0, 0, tmem.PageIndex(i)), page(byte(i)))
	}
	if firstErr == nil {
		t.Fatal("outage never surfaced")
	}
	if st := l.Stats(); st.Errors == 0 {
		t.Fatalf("outage not counted: %+v", st)
	}
	// The mirror must not contain the failed page: Stats gauges stay
	// consistent with what the WAL actually holds.
	if l.PagesLive() >= 64 {
		t.Fatal("failed put landed in mirror")
	}
}

// --- tier over a backend ---

func TestTierDemotionRoundTrip(t *testing.T) {
	blob := NewMemStore()
	l := mustOpen(t, testOpts(blob))
	tier := NewTier("durable", l)
	// 8-page backend: most of the workload overflows into the tier.
	b := tmem.NewBackend(8, tmem.NewDataStore(testPageSize))
	b.AttachTier(tier)

	pool := b.NewPool(1, tmem.Persistent)
	epool := b.NewPool(1, tmem.Ephemeral)
	want := make(map[tmem.Key][]byte)
	for i := 0; i < 64; i++ {
		k := key(pool, tmem.ObjectID(1), tmem.PageIndex(i))
		d := page(byte(i))
		if st := b.Put(k, d); st != tmem.STmem {
			t.Fatalf("put %d: %v", i, st)
		}
		want[k] = d
	}
	ts := tier.Stats()
	if ts.PutsOK == 0 {
		t.Fatalf("no overflow reached the tier: %+v", ts)
	}
	// Ephemeral overflow must NOT be journaled.
	for i := 0; i < 16; i++ {
		b.Put(key(epool, 0, tmem.PageIndex(i)), page(0xCC))
	}
	if got := l.PagesLive(); got != ts.PutsOK {
		t.Fatalf("journal holds %d pages, tier accepted %d", got, ts.PutsOK)
	}

	// Every page reads back byte-identical through the backend.
	dst := make([]byte, testPageSize)
	for k, d := range want {
		if st := b.Get(k, dst); st != tmem.STmem {
			t.Fatalf("get %v: %v", k, st)
		}
		if !bytes.Equal(dst, d) {
			t.Fatalf("page %v corrupted", k)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := b.DestroyPool(pool); err != nil {
		t.Fatal(err)
	}
	if got := l.PagesLive(); got != 0 {
		t.Fatalf("%d journaled pages survived pool destroy", got)
	}
	l.Close()
}

func TestTierDegradesSticky(t *testing.T) {
	fs := &failStore{BlobStore: NewMemStore(), budget: 1 << 20}
	l := mustOpen(t, testOpts(fs))
	defer l.Close()
	tier := NewTier("durable", l)
	if st := tier.Put(key(0, 0, 0), tmem.Persistent, page(1)); st != tmem.STmem {
		t.Fatalf("healthy put: %v", st)
	}
	fs.budget = 0
	if st := tier.Put(key(0, 0, 1), tmem.Persistent, page(2)); st != tmem.ETmem {
		t.Fatalf("outage put: %v", st)
	}
	fs.budget = 1 << 20 // store recovers, tier must stay down
	if st := tier.Put(key(0, 0, 2), tmem.Persistent, page(3)); st != tmem.ETmem {
		t.Fatalf("sticky degradation violated: %v", st)
	}
	if tier.Stats().Errors == 0 {
		t.Fatal("error not counted")
	}
	// Reads still serve what was journaled before the outage.
	if st := tier.Get(key(0, 0, 0), nil); st != tmem.STmem {
		t.Fatalf("read after degradation: %v", st)
	}
}

// --- write-through store ---

func TestStoreWriteThroughCrashRecover(t *testing.T) {
	blob := NewMemStore()
	l := mustOpen(t, testOpts(blob))
	b := tmem.NewBackend(1024, tmem.NewDataStore(testPageSize))
	s := NewStore(b, l)

	pool := s.NewPool(7, tmem.Persistent)
	epool := s.NewPool(7, tmem.Ephemeral)
	want := make(map[tmem.Key][]byte)
	keys := make([]tmem.Key, 40)
	datas := make([][]byte, 40)
	sts := make([]tmem.Status, 40)
	for i := range keys {
		keys[i] = key(pool, tmem.ObjectID(i/8), tmem.PageIndex(i))
		datas[i] = page(byte(i))
	}
	s.PutBatch(keys, datas, sts)
	for i, st := range sts {
		if st != tmem.STmem {
			t.Fatalf("batch put %d: %v", i, st)
		}
		want[keys[i]] = datas[i]
	}
	if st := s.Put(key(epool, 0, 0), page(0xDD)); st != tmem.STmem {
		t.Fatalf("ephemeral put: %v", st)
	}
	if st := s.FlushPage(keys[3]); st != tmem.STmem {
		t.Fatalf("flush: %v", st)
	}
	delete(want, keys[3])

	// Crash: drop backend and log, reopen over the same blob.
	l2 := mustOpen(t, testOpts(blob))
	b2 := tmem.NewBackend(1024, tmem.NewDataStore(testPageSize))
	s2 := NewStore(b2, l2)
	rs, err := s2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.Pools != 1 || rs.Pages != uint64(len(want)) || rs.Dropped != 0 {
		t.Fatalf("RecoverStats = %+v, want 1 pool / %d pages", rs, len(want))
	}
	dst := make([]byte, testPageSize)
	for k, d := range want {
		if st := s2.Get(k, dst); st != tmem.STmem {
			t.Fatalf("get %v after recovery: %v", k, st)
		}
		if !bytes.Equal(dst, d) {
			t.Fatalf("page %v corrupted across crash", k)
		}
	}
	// Ephemeral state is gone; the flushed page stays flushed.
	if st := s2.Get(key(epool, 0, 0), dst); st == tmem.STmem {
		t.Fatal("ephemeral page survived crash")
	}
	if st := s2.Get(keys[3], dst); st == tmem.STmem {
		t.Fatal("flushed page resurrected")
	}
	// Pool ids survive: a new pool must not collide with the restored one.
	if np := s2.NewPool(8, tmem.Persistent); np <= pool {
		t.Fatalf("restored pool id reissued: new pool %d vs restored %d", np, pool)
	}
	l2.Close()
}

func TestStoreRecoverIntoSmallerBackend(t *testing.T) {
	blob := NewMemStore()
	l := mustOpen(t, testOpts(blob))
	b := tmem.NewBackend(256, tmem.NewDataStore(testPageSize))
	s := NewStore(b, l)
	pool := s.NewPool(1, tmem.Persistent)
	want := make(map[tmem.Key][]byte)
	for i := 0; i < 64; i++ {
		k := key(pool, 0, tmem.PageIndex(i))
		d := page(byte(i))
		if st := s.Put(k, d); st != tmem.STmem {
			t.Fatalf("put %d: %v", i, st)
		}
		want[k] = d
	}

	// Restart into a backend with room for only 8 pages: Recover drops
	// what does not fit, but Get must still serve every page (from the
	// durable mirror) — zero persistent-page loss.
	l2 := mustOpen(t, testOpts(blob))
	b2 := tmem.NewBackend(8, tmem.NewDataStore(testPageSize))
	s2 := NewStore(b2, l2)
	rs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Dropped == 0 {
		t.Fatalf("expected drops into 8-page backend: %+v", rs)
	}
	dst := make([]byte, testPageSize)
	for k, d := range want {
		if st := s2.Get(k, dst); st != tmem.STmem {
			t.Fatalf("get %v: %v", k, st)
		}
		if !bytes.Equal(dst, d) {
			t.Fatalf("page %v corrupted", k)
		}
	}
	if s2.RecoveryServed() == 0 {
		t.Fatal("mirror fallback never used")
	}
	l2.Close()
}

func TestStoreJournalFailureNoFalseDurability(t *testing.T) {
	fs := &failStore{BlobStore: NewMemStore(), budget: 1 << 20}
	l := mustOpen(t, testOpts(fs))
	defer l.Close()
	b := tmem.NewBackend(1024, tmem.NewDataStore(testPageSize))
	s := NewStore(b, l)
	pool := s.NewPool(1, tmem.Persistent)
	if st := s.Put(key(pool, 0, 0), page(1)); st != tmem.STmem {
		t.Fatal("healthy put failed")
	}
	fs.budget = 0
	k := key(pool, 0, 1)
	if st := s.Put(k, page(2)); st != tmem.ETmem {
		t.Fatalf("unjournaled put acknowledged: %v", st)
	}
	// The backend must not hold a page the journal lost.
	if st := b.Get(k, nil); st == tmem.STmem {
		t.Fatal("false durability: page in backend but not in journal")
	}
	if !s.Degraded() {
		t.Fatal("store not degraded after journal failure")
	}
	// Degradation is sticky even after the blob store recovers.
	fs.budget = 1 << 20
	if st := s.Put(key(pool, 0, 2), page(3)); st != tmem.ETmem {
		t.Fatalf("sticky degradation violated: %v", st)
	}
}

// TestStoreBatchJournalsPersistentSubset drives the PutBatch of both
// durable shapes — Store over a backend, and the demotion Tier — with
// whole persistent batches and mixed persistent/ephemeral ones, healthy
// and with the journal failing. The journal takes the persistent pages and
// nothing else. Once it fails, those answer ETmem and neither shape keeps
// them; an ephemeral page answers what the shape gives it, the backend's
// STmem or the tier's ETmem.
func TestStoreBatchJournalsPersistentSubset(t *testing.T) {
	for _, shape := range []string{"store", "tier"} {
		t.Run(shape, func(t *testing.T) {
			fs := &failStore{BlobStore: NewMemStore(), budget: 1 << 20}
			l := mustOpen(t, testOpts(fs))
			defer l.Close()
			var (
				pool, epool tmem.PoolID
				putBatch    func(keys []tmem.Key, datas [][]byte, sts []tmem.Status)
				ephemeral   tmem.Status           // an ephemeral page's answer
				kept        func(k tmem.Key) bool // the shape holds k outside the journal
			)
			switch shape {
			case "store":
				b := tmem.NewBackend(1024, tmem.NewDataStore(testPageSize))
				s := NewStore(b, l)
				pool, epool = s.NewPool(1, tmem.Persistent), s.NewPool(1, tmem.Ephemeral)
				putBatch, ephemeral = s.PutBatch, tmem.STmem
				kept = func(k tmem.Key) bool { return b.Get(k, nil) == tmem.STmem }
			case "tier":
				tier := NewTier("durable", l)
				pool, epool = 3, 4 // the backend's ids; the tier journals pool 3 lazily
				putBatch = func(keys []tmem.Key, datas [][]byte, sts []tmem.Status) {
					kinds := make([]tmem.PoolKind, len(keys))
					for i, k := range keys {
						if kinds[i] = tmem.Persistent; k.Pool == epool {
							kinds[i] = tmem.Ephemeral
						}
					}
					tier.PutBatch(keys, kinds, datas, sts)
				}
				ephemeral = tmem.ETmem
				kept = func(tmem.Key) bool { return false }
				defer func() {
					// One failed append, the new pool's: the batch stops
					// there, and the failed journal is not asked again.
					if st := tier.Stats(); st.Puts != 32 || st.PutsOK != 12 || st.Errors != 1 {
						t.Errorf("tier counters %+v, want 32 puts, 12 journaled, 1 error", st)
					}
				}()
			}

			batch := func(obj tmem.ObjectID, mixed bool) ([]tmem.Key, [][]byte, []tmem.Status) {
				keys, datas := make([]tmem.Key, 8), make([][]byte, 8)
				for i := range keys {
					p := pool
					if mixed && i%2 == 1 {
						p = epool
					}
					keys[i], datas[i] = key(p, obj, tmem.PageIndex(i)), page(byte(i))
				}
				return keys, datas, make([]tmem.Status, 8)
			}
			for _, mixed := range []bool{false, true} {
				obj := tmem.ObjectID(0)
				if mixed {
					obj = 1
				}
				keys, datas, sts := batch(obj, mixed)
				putBatch(keys, datas, sts)
				for i, k := range keys {
					want := tmem.STmem
					if k.Pool == epool {
						want = ephemeral
					}
					if sts[i] != want {
						t.Fatalf("mixed=%v: put %v = %v, want %v", mixed, k, sts[i], want)
					}
					if got, want := l.Contains(k), k.Pool == pool; got != want {
						t.Fatalf("mixed=%v: journal holds %v = %v, want %v", mixed, k, got, want)
					}
				}
			}
			if !l.HasPool(pool) || l.HasPool(epool) {
				t.Fatalf("journaled pools %v, want only %d", l.Pools(), pool)
			}

			fs.budget = 0   // the journal fails from here on
			const npool = 9 // a persistent pool the journal does not hold yet
			for _, mixed := range []bool{true, false} {
				obj := tmem.ObjectID(2)
				if mixed {
					obj = 3
				}
				keys, datas, sts := batch(obj, mixed)
				if mixed && shape == "tier" {
					keys[1].Pool = npool // the tier must journal the pool first
				}
				putBatch(keys, datas, sts)
				for i, k := range keys {
					want := tmem.ETmem
					if k.Pool == epool {
						want = ephemeral // not journaled, so not affected
					}
					if sts[i] != want {
						t.Fatalf("journal down, mixed=%v: put %v = %v, want %v", mixed, k, sts[i], want)
					}
					if k.Pool != epool && (kept(k) || l.Contains(k)) {
						t.Fatalf("journal down: %v kept, which the journal lost", k)
					}
				}
			}
			if l.Err() == nil || l.HasPool(npool) {
				t.Fatalf("journal down: error %v, pools %v", l.Err(), l.Pools())
			}
		})
	}
}

// TestLogPutBatchJournalsAcceptedPagesOfItsPools holds Log.PutBatch to its
// rule: it journals the keys whose status is STmem and whose pool it
// holds, skips every other key, and on a failure — an oversize page, a
// failed append, a failed journal — journals none of them and turns their
// statuses to ETmem.
func TestLogPutBatchJournalsAcceptedPagesOfItsPools(t *testing.T) {
	fs := &failStore{BlobStore: NewMemStore(), budget: 1 << 20}
	l := mustOpen(t, testOpts(fs))
	defer l.Close()
	if err := l.NewPool(1, 1, tmem.Persistent); err != nil {
		t.Fatal(err)
	}
	// Journaled, refused by the caller, in a pool the log does not hold.
	keys := []tmem.Key{key(1, 0, 0), key(1, 0, 1), key(2, 0, 0), key(1, 0, 2)}
	input := []tmem.Status{tmem.STmem, tmem.ETmem, tmem.STmem, tmem.STmem}
	datas := [][]byte{page(1), page(2), page(3), page(4)}
	run := func(datas [][]byte) ([]tmem.Status, error) {
		sts := slices.Clone(input)
		return sts, l.PutBatch(keys, datas, sts)
	}

	sts, err := run(datas)
	if err != nil || !slices.Equal(sts, input) {
		t.Fatalf("healthy batch: %v, statuses %v; want nil and %v", err, sts, input)
	}
	for i, k := range keys {
		if got, want := l.Contains(k), k.Pool == 1 && input[i] == tmem.STmem; got != want {
			t.Fatalf("journal holds %v = %v, want %v", k, got, want)
		}
	}
	if n := l.Stats().Appends; n != 3 { // the pool and two pages
		t.Fatalf("Appends = %d, want 3", n)
	}

	refused := []tmem.Status{tmem.ETmem, tmem.ETmem, tmem.STmem, tmem.ETmem}
	oversize := slices.Clone(datas)
	oversize[3] = make([]byte, testPageSize+1)
	if sts, err := run(oversize); err == nil || !slices.Equal(sts, refused) {
		t.Fatalf("oversize page: %v, statuses %v; want an error and %v", err, sts, refused)
	}
	if n := l.Stats().Appends; n != 3 || l.Err() != nil {
		t.Fatalf("oversize page: Appends = %d, Err %v; want nothing appended and a healthy journal", n, l.Err())
	}

	fs.budget = 0
	for _, when := range []string{"failing append", "failed journal"} {
		if sts, err := run(datas); err == nil || !slices.Equal(sts, refused) {
			t.Fatalf("%s: %v, statuses %v; want an error and %v", when, err, sts, refused)
		}
	}
	// A batch the journal holds no accepted key of is skipped whole.
	sts = []tmem.Status{tmem.ETmem, tmem.ETmem, tmem.STmem, tmem.ETmem}
	if err := l.PutBatch(keys, datas, sts); err != nil || !slices.Equal(sts, refused) {
		t.Fatalf("failed journal, nothing to journal: %v, statuses %v; want nil and unchanged", err, sts)
	}
}

// TestStoreRefusedOverwriteIsNotServedStale: an overwrite every tier
// refuses invalidates the previous version (tmem's contract), so the
// journal must not serve that version back — not to a Get, not after a
// restart. Driven through Put and through PutBatch.
func TestStoreRefusedOverwriteIsNotServedStale(t *testing.T) {
	const pageSize = 4096
	for _, batch := range []bool{false, true} {
		blob := NewMemStore()
		opts := testOpts(blob)
		opts.PageSize = pageSize
		stack := func(l *Log) *Store {
			b := tmem.NewBackend(4, tmem.NewDataStore(pageSize))
			b.AttachTier(tmem.NewCompressedTier(tmem.CompressedTierConfig{PageSize: pageSize, CapacityBytes: pageSize}))
			return NewStore(b, l)
		}
		s := stack(mustOpen(t, opts))
		pool := s.NewPool(1, tmem.Persistent)
		s.Backend().SetTarget(1, 0) // every put overflows into the compressed tier
		put := func(k tmem.Key, data []byte) tmem.Status {
			if !batch {
				return s.Put(k, data)
			}
			sts := make([]tmem.Status, 1)
			s.PutBatch([]tmem.Key{k}, [][]byte{data}, sts)
			return sts[0]
		}

		k := key(pool, 0, 0)
		if st := put(k, bytes.Repeat([]byte{'a'}, pageSize)); st != tmem.STmem {
			t.Fatalf("batch=%v: compressible v1 = %v, want the tier to take it", batch, st)
		}
		v2 := make([]byte, pageSize)
		rand.New(rand.NewSource(1)).Read(v2) // incompressible
		if st := put(k, v2); st != tmem.ETmem {
			t.Fatalf("batch=%v: incompressible v2 = %v, want E_TMEM", batch, st)
		}
		dst := make([]byte, pageSize)
		if st := s.Get(k, dst); st != tmem.ETmem {
			t.Fatalf("batch=%v: get after the refused overwrite = %v (dst[0] %q), want E_TMEM", batch, st, dst[0])
		}
		if n := s.RecoveryServed(); n != 0 {
			t.Fatalf("batch=%v: RecoveryServed = %d, want 0", batch, n)
		}

		s.Log().Close()
		s2 := stack(mustOpen(t, opts))
		if _, err := s2.Recover(); err != nil {
			t.Fatal(err)
		}
		if st := s2.Get(k, dst); st != tmem.ETmem || s2.Log().Contains(k) {
			t.Fatalf("batch=%v: after restart get = %v, journal holds it = %v; want E_TMEM and gone", batch, st, s2.Log().Contains(k))
		}
		s2.Log().Close()
	}
}

func TestRestorePoolAdvancesAllocator(t *testing.T) {
	b := tmem.NewBackend(64, tmem.NewDataStore(testPageSize))
	if err := b.RestorePool(5, 1, tmem.Persistent); err != nil {
		t.Fatalf("RestorePool: %v", err)
	}
	if err := b.RestorePool(5, 1, tmem.Persistent); err == nil {
		t.Fatal("duplicate restore accepted")
	}
	if id := b.NewPool(1, tmem.Ephemeral); id != 6 {
		t.Fatalf("NewPool after restore = %d, want 6", id)
	}
	if st := b.Put(key(5, 0, 0), page(1)); st != tmem.STmem {
		t.Fatalf("put into restored pool: %v", st)
	}
}

func TestSegmentNaming(t *testing.T) {
	for _, seq := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		got, ok := segSeq(segKey(seq))
		if !ok || got != seq {
			t.Fatalf("segSeq(segKey(%d)) = %d, %v", seq, got, ok)
		}
	}
	for _, k := range []string{"wal/xyz.log", "snapshot/0/MANIFEST", "wal/00.log", fmt.Sprintf("wal/%016x.bin", 3)} {
		if _, ok := segSeq(k); ok {
			t.Fatalf("segSeq accepted %q", k)
		}
	}
}
