package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"smartmem/internal/core"
	"smartmem/internal/durable"
	"smartmem/internal/metrics"
)

// countingStore records what a sweep fetches from and stores to the blob
// store.
type countingStore struct {
	durable.BlobStore
	mu         sync.Mutex
	gets       int
	seriesGets int
	bytes      int
	cellGets   []string // keys of the scalar records fetched
	puts       int
	packPuts   int
}

func (c *countingStore) Get(key string) ([]byte, error) {
	b, err := c.BlobStore.Get(key)
	c.mu.Lock()
	c.gets++
	if strings.HasPrefix(key, seriesPrefix) {
		c.seriesGets++
	}
	if strings.HasPrefix(key, memoPrefix) {
		c.cellGets = append(c.cellGets, key)
	}
	c.bytes += len(b)
	c.mu.Unlock()
	return b, err
}

func (c *countingStore) Put(key string, data []byte) error {
	c.mu.Lock()
	c.puts++
	if strings.HasPrefix(key, packPrefix) {
		c.packPuts++
	}
	c.mu.Unlock()
	return c.BlobStore.Put(key, data)
}

func (c *countingStore) reset() {
	c.gets, c.seriesGets, c.bytes, c.cellGets, c.puts, c.packPuts = 0, 0, 0, nil, 0, 0
}

// dropPacks deletes every pack, leaving the per-cell records alone.
func dropPacks(t *testing.T, store durable.BlobStore) {
	t.Helper()
	keys, err := store.List(packPrefix)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := store.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
}

func seriesCSV(t *testing.T, set *metrics.Set) string {
	t.Helper()
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// A warm league or times table is one read, of the sweep's pack — under
// 2 KiB per cell, no series blob, nothing stored; the sweeps that hand
// results to their caller read the pack plus each cell's series, byte-equal
// to a fresh simulation's.
func TestWarmAggregationsReadScalarsOnly(t *testing.T) {
	s, err := BySlug("scale-2")
	if err != nil {
		t.Fatal(err)
	}
	store := &countingStore{BlobStore: durable.NewMemStore()}
	cache := NewMemo(store)
	opt := Options{Parallelism: 2, Cache: cache}
	scns := []*Scenario{s}
	policies := []string{"greedy", "smart-alloc:P=2"}
	seeds := []uint64{11, 23}
	const cells = 4

	if _, err := RunTournament(scns, policies, seeds, opt); err != nil { // fills the memo
		t.Fatal(err)
	}
	if n, err := cache.Len(); err != nil || n != cells {
		t.Errorf("Len = %d, %v after a %d-cell sweep", n, err, cells)
	}
	if store.packPuts != 1 {
		t.Errorf("cold sweep stored %d packs, want 1", store.packPuts)
	}

	warm := map[string]func() error{
		"RunTournament": func() error { _, err := RunTournament(scns, policies, seeds, opt); return err },
		"TimesOpts":     func() error { _, err := TimesOpts(s, policies, seeds, opt); return err },
	}
	for name, run := range warm {
		store.reset()
		before := cache.Stats()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		if store.gets != 1 || store.seriesGets != 0 || store.puts != 0 {
			t.Errorf("warm %s: %d gets (%d of series blobs), %d puts; want 1 (the pack), 0 and 0",
				name, store.gets, store.seriesGets, store.puts)
		}
		if store.bytes > cells*2048 {
			t.Errorf("warm %s read %d bytes for %d cells, want <= 2 KiB per cell", name, store.bytes, cells)
		}
		st := cache.Stats()
		if got := st.BytesRead - before.BytesRead; got != uint64(store.bytes) {
			t.Errorf("warm %s: BytesRead grew by %d, store served %d", name, got, store.bytes)
		}
		if st.Hits-before.Hits != cells || st.Misses != before.Misses {
			t.Errorf("warm %s: stats %+v -> %+v, want %d hits and no miss", name, before, st, cells)
		}
	}

	fresh, err := RunMatrix(scns, policies, seeds, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	store.reset()
	cached, err := RunMatrix(scns, policies, seeds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if store.gets != 1+cells || store.seriesGets != cells || store.puts != 0 {
		t.Errorf("warm RunMatrix: %d gets (%d of series blobs), %d puts; want %d, %d and 0",
			store.gets, store.seriesGets, store.puts, 1+cells, cells)
	}
	for i := range fresh {
		if got, want := seriesCSV(t, cached[i].Result.Series), seriesCSV(t, fresh[i].Result.Series); got != want {
			t.Errorf("%s: cached series differ from a fresh run's", fresh[i].Job)
		}
	}
	set, err := SeriesSet(s, policies, seeds[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range set {
		want := fresh[i*len(seeds)].Result // policy-major matrix, first seed
		if seriesCSV(t, run.Result.Series) != seriesCSV(t, want.Series) {
			t.Errorf("SeriesSet %s: cached series differ from a fresh run's", run.PolicySpec)
		}
	}
	if st := cache.Stats(); st.Misses != cells || st.Corrupt != 0 {
		t.Errorf("stats after warm sweeps = %+v, want only the %d cold misses", st, cells)
	}
}

// Damage to either blob costs a recompute, never a wrong or partial result:
// a lost or rotten series blob still serves scalar reads, fails the full
// read as corrupt, and is healed by the next full-read sweep; a lost scalar
// record is a plain miss whatever is left beside it.
func TestMemoSplitDamage(t *testing.T) {
	s, err := BySlug("scale-2")
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Scenario: s, PolicySpec: "greedy", Seed: 11}
	fp, err := JobFingerprint(job)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunOne(s, job.PolicySpec, job.Seed)
	if err != nil {
		t.Fatal(err)
	}

	damage := map[string]func(*durable.MemStore) error{
		"series deleted": func(st *durable.MemStore) error { return st.Delete(seriesKey(fp)) },
		"series truncated": func(st *durable.MemStore) error {
			return st.Corrupt(seriesKey(fp), func(b []byte) []byte { return b[:len(b)-8] })
		},
		"series bit flip": func(st *durable.MemStore) error {
			return st.Corrupt(seriesKey(fp), func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b })
		},
	}
	for name, hurt := range damage {
		store := durable.NewMemStore()
		cache := NewMemo(store)
		opt := Options{Parallelism: 1, Cache: cache}
		if _, err := opt.run([]Job{job}, false); err != nil {
			t.Fatal(err)
		}
		if err := hurt(store); err != nil {
			t.Fatal(err)
		}
		if res, ok := cache.get(fp, false); !ok || res.DiskOps != want.DiskOps || res.Series != nil {
			t.Errorf("%s: scalar read = %v, %v; want a hit without series", name, res, ok)
		}
		if _, ok := cache.Get(fp); ok {
			t.Errorf("%s: full read hit", name)
		}
		if st := cache.Stats(); st.Corrupt != 1 || st.Misses != 2 {
			t.Errorf("%s: stats = %+v, want 1 corrupt and 2 misses (cold + damaged)", name, st)
		}
		healed, err := opt.run([]Job{job}, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(healed[0].Result, want) {
			t.Errorf("%s: recomputed result differs from a fresh run", name)
		}
		if got, ok := cache.Get(fp); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: entry not healed by the recompute", name)
		}
		if st := cache.Stats(); st.Writes != 2 || st.Corrupt != 2 {
			t.Errorf("%s: stats = %+v, want 2 writes and 2 corrupt", name, st)
		}
	}

	store := durable.NewMemStore()
	cache := NewMemo(store)
	opt := Options{Parallelism: 1, Cache: cache}
	if _, err := opt.run([]Job{job}, false); err != nil {
		t.Fatal(err)
	}
	if err := store.Delete(memoKey(fp)); err != nil {
		t.Fatal(err)
	}
	// The pack is derived from the per-cell records: lost with them, it
	// would still serve the engine (TestMemoPackRecovery covers the pack's
	// own damage).
	dropPacks(t, store)
	if _, ok := cache.Get(fp); ok {
		t.Error("scalar record deleted: full read hit")
	}
	if _, ok := cache.get(fp, false); ok {
		t.Error("scalar record deleted: scalar read hit")
	}
	if st := cache.Stats(); st.Corrupt != 0 || st.Misses != 3 {
		t.Errorf("scalar record deleted: stats = %+v, want plain misses", st)
	}
	if _, err := opt.run([]Job{job}, false); err != nil {
		t.Fatal(err)
	}
	if got, ok := cache.Get(fp); !ok || !reflect.DeepEqual(got, want) {
		t.Error("scalar record deleted: recompute did not restore the entry")
	}
}

// A well-formed, checksum-valid series blob whose timestamps regress is
// untrusted input like any other: a miss counted as corrupt and healed by
// the recompute — not a panic out of metrics.(*Series).Add.
func TestMemoSeriesTimeRegressionIsCorrupt(t *testing.T) {
	s, err := BySlug("scale-2")
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Scenario: s, PolicySpec: "greedy", Seed: 11}
	fp, err := JobFingerprint(job)
	if err != nil {
		t.Fatal(err)
	}

	series := appendBlobHead(nil, seriesMagic, fp)
	series = encU64(series, 1)
	series = encStr(series, "x")
	series = encU64(series, 2)
	series = encF64(encF64(series, 2), 0) // t=2
	series = encF64(encF64(series, 1), 0) // t=1: regression
	store := durable.NewMemStore()
	if err := store.Put(seriesKey(fp), series); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(memoKey(fp), encodeScalarRecord(nil, fp, &core.Result{PolicyName: "greedy"}, refOf(series))); err != nil {
		t.Fatal(err)
	}

	cache := NewMemo(store)
	if _, ok := cache.Get(fp); ok {
		t.Fatal("entry with regressing series timestamps hit")
	}
	if st := cache.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 corrupt miss", st)
	}
	want, err := RunOne(s, job.PolicySpec, job.Seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Options{Parallelism: 1, Cache: cache}.run([]Job{job}, false)
	if err != nil {
		t.Fatal(err, false)
	}
	if !reflect.DeepEqual(got[0].Result, want) {
		t.Error("recompute over the bad entry differs from a fresh run")
	}
	if healed, ok := cache.Get(fp); !ok || !reflect.DeepEqual(healed, want) {
		t.Error("bad entry not overwritten by the recompute")
	}
}

// A scalar hit allocates a handful of objects whatever the length of the
// cell's series: the Result, its slices and its strings.
func TestMemoScalarHitAllocs(t *testing.T) {
	res, err := RunOne(Scenario1, "greedy", 11)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewMemo(durable.NewMemStore())
	fp := Fingerprint{1}
	if err := cache.Put(fp, res); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := cache.get(fp, false); !ok {
			t.Fatal("miss")
		}
	})
	if allocs > 64 {
		t.Errorf("scalar hit allocates %.0f objects, want <= 64", allocs)
	}
}
