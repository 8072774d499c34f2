package tmem

import (
	"math"
	"runtime"
	"testing"

	"smartmem/internal/mem"
)

// indexRig is a one-stripe backend with one persistent pool, for tests of
// the run index underneath it.
func indexRig(t *testing.T) (*Backend, *shard, PoolID) {
	t.Helper()
	b := NewBackend(1024, NewMetaStore(testPage))
	return b, b.shards[0], b.NewPool(1, Persistent)
}

func mustHold(t *testing.T, b *Backend) {
	t.Helper()
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// locValue is shaped like the durable journal's 16-byte loc: the second
// value type the index tests run on, beside the store's entry. Each test
// runs on a RunIndex of both, with a value per key that tells keys apart.
type locValue struct {
	blob   uint64
	off, n uint32
}

func entryOf(k Key) entry {
	return entry{handle: Handle(k.Index), stamp: uint64(k.Object), tier: int32(k.Pool)}
}

func locOf(k Key) locValue {
	return locValue{blob: uint64(k.Object), off: uint32(k.Index), n: uint32(k.Pool) + 1}
}

// put inserts each key, absent before, with its value.
func put[V comparable](t *testing.T, x *RunIndex[V], val func(Key) V, keys ...Key) {
	t.Helper()
	for _, k := range keys {
		v, added := x.Insert(k)
		if !added {
			t.Fatalf("Insert %v found it present", k)
		}
		*v = val(k)
	}
}

// holds reports whether x returns k's value.
func holds[V comparable](x *RunIndex[V], val func(Key) V, k Key) bool {
	v := x.Get(k)
	return v != nil && *v == val(k)
}

// del deletes k, reporting whether x returned k's value.
func del[V comparable](x *RunIndex[V], val func(Key) V, k Key) bool {
	v, ok := x.Delete(k)
	return ok && v == val(k)
}

func mustCheck[V any](t *testing.T, x *RunIndex[V]) {
	t.Helper()
	if err := x.Check(); err != nil {
		t.Fatal(err)
	}
}

// boundaryKeys sit on either side of a run boundary, and at the ends of
// the index and object ranges.
func boundaryKeys(pool PoolID) []Key {
	return []Key{
		{pool, 1, 0}, {pool, 1, runLen - 1}, {pool, 1, runLen}, {pool, 1, 2*runLen - 1}, {pool, 1, 2 * runLen},
		{pool, 1, 63}, {pool, 1, 64},
		{pool, 1, math.MaxUint32 - runLen}, {pool, 1, math.MaxUint32 - runLen + 1}, {pool, 1, math.MaxUint32},
		{pool, math.MaxUint64, 0}, {pool, math.MaxUint64, math.MaxUint32},
	}
}

// runsOf counts the distinct runs of keys.
func runsOf(keys []Key) int {
	runs := map[Key]bool{}
	for _, k := range keys {
		runs[Key{k.Pool, k.Object, k.Index &^ runMask}] = true
	}
	return len(runs)
}

// TestRunIndexBoundaries: keys on either side of a run boundary, and at the
// ends of the index and object ranges, land in the leaves their run names,
// each at its own offset, and every leaf leaves the table with its last key
// — in a RunIndex of each value type, and in a stripe of the store.
func TestRunIndexBoundaries(t *testing.T) {
	t.Run("entry", func(t *testing.T) { indexBoundaries(t, entryOf) })
	t.Run("loc", func(t *testing.T) { indexBoundaries(t, locOf) })

	b, sh, pool := indexRig(t)
	keys := boundaryKeys(pool)
	for _, k := range keys {
		if b.Put(k, nil) != STmem {
			t.Fatalf("Put %v failed", k)
		}
		mustHold(t, b)
	}
	if sh.ix.runs != runsOf(keys) || sh.ix.Len() != len(keys) {
		t.Fatalf("%d runs over %d keys, want %d over %d", sh.ix.runs, sh.ix.Len(), runsOf(keys), len(keys))
	}
	for _, k := range keys {
		e := sh.ix.Get(k)
		if e == nil || e.key() != k {
			t.Fatalf("lookup %v = %v", k, e)
		}
		if base := e.leaf.base; base != k.Index&^runMask || base+PageIndex(e.off) != k.Index {
			t.Errorf("%v sits at %d+%d", k, base, e.off)
		}
	}
	if sh.ix.Get(Key{pool, 1, runLen + 1}) != nil || sh.ix.Get(Key{pool, 2, runLen}) != nil {
		t.Error("an absent key of a held run, or of an absent object, was found")
	}
	for i, k := range keys {
		if b.FlushPage(k) != STmem {
			t.Fatalf("FlushPage %v failed", k)
		}
		mustHold(t, b)
		if sh.ix.Get(k) != nil {
			t.Fatalf("%v still indexed after its flush", k)
		}
		for _, later := range keys[i+1:] {
			if sh.ix.Get(later) == nil {
				t.Fatalf("flushing %v lost %v", k, later)
			}
		}
	}
	if sh.ix.runs != 0 || sh.ix.Len() != 0 {
		t.Errorf("%d runs, %d keys left", sh.ix.runs, sh.ix.Len())
	}
}

func indexBoundaries[V comparable](t *testing.T, val func(Key) V) {
	x := new(RunIndex[V])
	keys := boundaryKeys(3)
	for _, k := range keys {
		put(t, x, val, k)
		mustCheck(t, x)
	}
	if x.runs != runsOf(keys) || x.Len() != len(keys) {
		t.Fatalf("%d runs over %d keys, want %d over %d", x.runs, x.Len(), runsOf(keys), len(keys))
	}
	for _, k := range keys {
		if !holds(x, val, k) {
			t.Fatalf("Get %v misses its value", k)
		}
		if lf := x.run(k); lf.base != k.Index&^runMask || lf.key(int(k.Index&runMask)) != k {
			t.Errorf("%v sits in the leaf of run %v", k, lf.key(0))
		}
	}
	if x.Get(Key{3, 1, runLen + 1}) != nil || x.Get(Key{3, 2, runLen}) != nil || del(x, val, Key{3, 1, runLen + 1}) {
		t.Error("an absent key of a held run, or of an absent object, was found")
	}
	for i, k := range keys {
		if !del(x, val, k) {
			t.Fatalf("Delete %v did not return its value", k)
		}
		mustCheck(t, x)
		if x.Get(k) != nil || del(x, val, k) {
			t.Fatalf("%v still held after its Delete", k)
		}
		for _, later := range keys[i+1:] {
			if !holds(x, val, later) {
				t.Fatalf("deleting %v lost %v", k, later)
			}
		}
	}
	if x.runs != 0 || x.Len() != 0 {
		t.Errorf("%d runs, %d keys left", x.runs, x.Len())
	}
}

// TestRunIndexLeafReuse: a leaf emptied by its run's last removal serves
// the next new run, of another object, with no trace of the first — its
// values read zero.
func TestRunIndexLeafReuse(t *testing.T) {
	t.Run("entry", func(t *testing.T) { indexLeafReuse(t, entryOf) })
	t.Run("loc", func(t *testing.T) { indexLeafReuse(t, locOf) })

	b, sh, pool := indexRig(t)
	for i := range PageIndex(runLen) {
		b.Put(Key{pool, 1, i}, nil)
	}
	first := sh.ix.Get(Key{pool, 1, 0}).leaf
	for i := range PageIndex(runLen) {
		b.FlushPage(Key{pool, 1, i})
	}
	if sh.ix.free != first || sh.ix.runs != 0 {
		t.Fatalf("emptied leaf not on the free list (runs %d)", sh.ix.runs)
	}
	k := Key{pool, 2, runLen + 5}
	b.Put(k, nil)
	mustHold(t, b)
	e := sh.ix.Get(k)
	if e == nil || e.leaf != first || e.key() != k || len(sh.ix.chunks) != 1 {
		t.Fatalf("new run got entry %v of a fresh leaf (%d chunks), want the reused one", e, len(sh.ix.chunks))
	}
	for i := range PageIndex(runLen) {
		if b.Contains(Key{pool, 1, i}) {
			t.Fatalf("key %d of the old run is back", i)
		}
	}
	if b.Get(Key{pool, 2, runLen}, nil) != ETmem || b.Get(k, nil) != STmem {
		t.Error("reused leaf answers wrong")
	}
}

func indexLeafReuse[V comparable](t *testing.T, val func(Key) V) {
	x := new(RunIndex[V])
	for i := range PageIndex(runLen) {
		put(t, x, val, Key{1, 1, i})
	}
	first := x.run(Key{1, 1, 0})
	for i := range PageIndex(runLen) {
		del(x, val, Key{1, 1, i})
	}
	if x.free != first || x.runs != 0 {
		t.Fatalf("emptied leaf not on the free list (runs %d)", x.runs)
	}
	k := Key{1, 2, runLen + 5}
	put(t, x, val, k)
	mustCheck(t, x)
	if x.run(k) != first || !holds(x, val, k) || len(x.chunks) != 1 {
		t.Fatalf("new run did not reuse the emptied leaf (%d chunks)", len(x.chunks))
	}
	var zero V
	for i := range PageIndex(runLen) {
		if x.Get(Key{1, 1, i}) != nil {
			t.Fatalf("key %d of the old run is back", i)
		}
		if i != k.Index&runMask && (x.Get(Key{1, 2, runLen + i}) != nil || first.vals[i] != zero) {
			t.Fatalf("offset %d of the reused leaf holds a value", i)
		}
	}
}

// TestRunIndexRemoveInEach: a loop over All that removes the key it is
// handed, emptying leaves as it goes, sees every key exactly once.
func TestRunIndexRemoveInEach(t *testing.T) {
	t.Run("entry", func(t *testing.T) { indexRemoveInEach(t, entryOf) })
	t.Run("loc", func(t *testing.T) { indexRemoveInEach(t, locOf) })

	b, sh, pool := indexRig(t)
	want := map[Key]bool{}
	for _, k := range []Key{{pool, 1, 3}, {pool, 1, 70}, {pool, 1, 71}, {pool, 2, 0}, {pool, 1, 63}} {
		b.Put(k, nil)
		want[k] = true
	}
	sh.mu.Lock()
	for k, e := range sh.ix.All {
		if !want[k] || e.key() != k {
			t.Fatalf("All handed %v twice, or a key never put", k)
		}
		delete(want, k)
		b.dropEntry(sh, e)
	}
	sh.mu.Unlock()
	if len(want) != 0 {
		t.Errorf("All skipped %v", want)
	}
	mustHold(t, b)
	if sh.ix.runs != 0 || sh.ix.free == nil {
		t.Errorf("%d runs left, free list %v", sh.ix.runs, sh.ix.free)
	}
	// Through the backend: a FlushObject that empties one leaf in the middle
	// of the sweep leaves the leaves after it alone.
	for _, k := range []Key{{pool, 1, 0}, {pool, 2, 0}, {pool, 1, 64}} {
		b.Put(k, nil)
	}
	if n, st := b.FlushObject(pool, 2); n != 1 || st != STmem {
		t.Fatalf("FlushObject = %d, %v", n, st)
	}
	mustHold(t, b)
	if !b.Contains(Key{pool, 1, 0}) || !b.Contains(Key{pool, 1, 64}) {
		t.Error("FlushObject took another object's pages")
	}
}

func indexRemoveInEach[V comparable](t *testing.T, val func(Key) V) {
	x := new(RunIndex[V])
	want := map[Key]bool{}
	for _, k := range []Key{{1, 1, 3}, {1, 1, 70}, {1, 1, 71}, {1, 2, 0}, {1, 1, 63}} {
		put(t, x, val, k)
		want[k] = true
	}
	for k, v := range x.All {
		if !want[k] || *v != val(k) {
			t.Fatalf("All handed %v twice, or a key never put, or a wrong value", k)
		}
		delete(want, k)
		if !del(x, val, k) {
			t.Fatalf("Delete %v inside All failed", k)
		}
	}
	if len(want) != 0 {
		t.Errorf("All skipped %v", want)
	}
	mustCheck(t, x)
	if x.runs != 0 || x.free == nil {
		t.Errorf("%d runs left, free list %v", x.runs, x.free)
	}
}

// collidingRuns returns the first keys of two runs of pool whose table
// tags are equal.
func collidingRuns(pool PoolID) (a, c Key) {
	seen := map[uint32]ObjectID{}
	for o := ObjectID(0); ; o++ {
		k := Key{pool, o, 0}
		tag := uint32(k.hash() >> 32)
		if prev, ok := seen[tag]; ok {
			return Key{pool, prev, 0}, k
		}
		seen[tag] = o
	}
}

// TestRunIndexTagCollision: two runs whose table tags are equal share a
// home slot; lookups tell them apart by the full run key, and removing the
// first one placed shifts the second back into reach.
func TestRunIndexTagCollision(t *testing.T) {
	t.Run("entry", func(t *testing.T) { indexTagCollision(t, entryOf) })
	t.Run("loc", func(t *testing.T) { indexTagCollision(t, locOf) })

	b, sh, pool := indexRig(t)
	a, c := collidingRuns(pool)
	b.Put(a, nil)
	b.Put(Key{c.Pool, c.Object, runMask}, nil)
	mustHold(t, b)
	if sh.ix.Get(c) != nil || sh.ix.Get(Key{a.Pool, a.Object, runMask}) != nil {
		t.Fatal("a key of one colliding run was found in the other's leaf")
	}
	if sh.ix.Get(a) == nil || sh.ix.Get(Key{c.Pool, c.Object, runMask}) == nil {
		t.Fatal("a colliding run is lost")
	}
	home := uint32(a.hash()>>32) & uint32(len(sh.ix.slots)-1)
	if sh.ix.slots[home].lf != sh.ix.Get(a).leaf {
		t.Fatal("the first colliding run does not sit in the shared home slot")
	}
	b.FlushPage(a)
	mustHold(t, b)
	e := sh.ix.Get(Key{c.Pool, c.Object, runMask})
	if e == nil || sh.ix.slots[home].lf != e.leaf {
		t.Fatal("removing the first colliding run did not shift the second back into its home slot")
	}
}

func indexTagCollision[V comparable](t *testing.T, val func(Key) V) {
	x := new(RunIndex[V])
	a, c := collidingRuns(1)
	cLast := Key{c.Pool, c.Object, runMask}
	put(t, x, val, a, cLast)
	mustCheck(t, x)
	if x.Get(c) != nil || x.Get(Key{a.Pool, a.Object, runMask}) != nil {
		t.Fatal("a key of one colliding run was found in the other's leaf")
	}
	if !holds(x, val, a) || !holds(x, val, cLast) {
		t.Fatal("a colliding run is lost")
	}
	home := uint32(a.hash()>>32) & uint32(len(x.slots)-1)
	if x.slots[home].lf != x.run(a) {
		t.Fatal("the first colliding run does not sit in the shared home slot")
	}
	del(x, val, a)
	mustCheck(t, x)
	if !holds(x, val, cLast) || x.slots[home].lf != x.run(cLast) {
		t.Fatal("removing the first colliding run did not shift the second back into its home slot")
	}
}

// TestSwapSweepAllocatesNothing pins leaf reuse: once warm, a put sweep
// over several runs followed by an exclusive get sweep, which empties every
// leaf again, allocates nothing.
func TestSwapSweepAllocatesNothing(t *testing.T) {
	b := NewBackend(1024, NewMetaStore(testPage))
	pool := b.NewExclusivePool(1)
	sweep := func() {
		for i := range PageIndex(8 * runLen) {
			b.Put(Key{pool, 1, i}, nil)
		}
		for i := range PageIndex(8 * runLen) {
			if b.Get(Key{pool, 1, i}, nil) != STmem {
				panic("exclusive get missed")
			}
		}
	}
	sweep()
	if allocs := testing.AllocsPerRun(20, sweep); allocs != 0 {
		t.Errorf("warm swap sweep: %.1f allocs, want 0", allocs)
	}
	mustHold(t, b)
	if n := b.TotalPages() - b.FreePages(); n != 0 {
		t.Errorf("%d pages held after the get sweep", n)
	}
}

// heapPerKey is the heap one key costs: the growth, divided by n, of
// building a store with mk and putting keys 0..n-1 through the put it
// returns.
func heapPerKey(n int, mk func() func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	put := mk()
	for i := range n {
		put(i)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(put)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// The key shapes of TestIndexHeapPerKey: one object's consecutive pages,
// one page per object as a key-value client may store them, and every
// third index of three interleaved objects.
func denseKey(p PoolID, i int) Key     { return Key{p, 1, PageIndex(i)} }
func objectPerKey(p PoolID, i int) Key { return Key{p, ObjectID(i), 0} }
func stride3Key(p PoolID, i int) Key   { return Key{p, ObjectID(i % 3), PageIndex(i)} }

// TestIndexHeapPerKey bounds what a key costs, for dense keys and for keys
// that share no run. The first key of a run pays for its whole leaf, so a
// key alone in its run costs one leaf and its table slot. A one-stripe
// MetaStore backend (index, leaves and the store's handle) spends under a
// sixth of the page such a key indexes, and no more on dense keys than the
// per-key table the run index replaced (about 90 bytes). The compressed
// tier, whose n pages are all zero and dedup to one blob, spends its index
// alone: no more than the per-object maps it replaced (63 bytes a dense
// key, 274 a key alone in its object).
func TestIndexHeapPerKey(t *testing.T) {
	const n = 1 << 14
	backend := func(key func(PoolID, int) Key) func() func(int) {
		return func() func(int) {
			b := NewBackend(mem.Pages(n), NewMetaStore(testPage))
			pool := b.NewPool(1, Persistent)
			return func(i int) {
				if b.Put(key(pool, i), nil) != STmem {
					t.Fatalf("put %d failed", i)
				}
			}
		}
	}
	compressed := func(key func(PoolID, int) Key) func() func(int) {
		return func() func(int) {
			ct := NewCompressedTier(CompressedTierConfig{PageSize: testPage, CapacityBytes: n * testPage})
			return func(i int) {
				if ct.Put(key(1, i), Persistent, nil) != STmem {
					t.Fatalf("put %d failed", i)
				}
			}
		}
	}
	for _, c := range []struct {
		name string
		mk   func() func(int)
		max  float64
	}{
		{"dense", backend(denseKey), 96},
		{"object-per-key", backend(objectPerKey), testPage / 6},
		{"stride-3", backend(stride3Key), 256},
		{"compressed/dense", compressed(denseKey), 40},
		{"compressed/object-per-key", compressed(objectPerKey), 240},
	} {
		got := heapPerKey(n, c.mk)
		t.Logf("%s: %.1f heap bytes per key", c.name, got)
		if got > c.max {
			t.Errorf("%s: %.0f heap bytes per key, want <= %.0f", c.name, got, c.max)
		}
	}
}
