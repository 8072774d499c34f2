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

// TestRunIndexBoundaries: keys on either side of a run boundary, and at the
// ends of the index and object ranges, land in the leaves their run names,
// each at its own offset, and every leaf leaves the table with its last key.
func TestRunIndexBoundaries(t *testing.T) {
	b, sh, pool := indexRig(t)
	keys := []Key{
		{pool, 1, 0}, {pool, 1, runLen - 1}, {pool, 1, runLen}, {pool, 1, 2*runLen - 1}, {pool, 1, 2 * runLen},
		{pool, 1, 63}, {pool, 1, 64},
		{pool, 1, math.MaxUint32 - runLen}, {pool, 1, math.MaxUint32 - runLen + 1}, {pool, 1, math.MaxUint32},
		{pool, math.MaxUint64, 0}, {pool, math.MaxUint64, math.MaxUint32},
	}
	runs := map[Key]bool{} // keys with Index cut to their run's base
	for _, k := range keys {
		if b.Put(k, nil) != STmem {
			t.Fatalf("Put %v failed", k)
		}
		runs[Key{k.Pool, k.Object, k.Index &^ runMask}] = true
		mustHold(t, b)
	}
	if sh.runs != len(runs) || sh.live != len(keys) {
		t.Fatalf("%d runs over %d keys, want %d over %d", sh.runs, sh.live, len(runs), len(keys))
	}
	for _, k := range keys {
		e := sh.lookup(k)
		if e == nil || e.key() != k {
			t.Fatalf("lookup %v = %v", k, e)
		}
		if base := e.leaf.base; base != k.Index&^runMask || base+PageIndex(e.off) != k.Index {
			t.Errorf("%v sits at %d+%d", k, base, e.off)
		}
	}
	if sh.lookup(Key{pool, 1, runLen + 1}) != nil || sh.lookup(Key{pool, 2, runLen}) != nil {
		t.Error("an absent key of a held run, or of an absent object, was found")
	}
	for i, k := range keys {
		if b.FlushPage(k) != STmem {
			t.Fatalf("FlushPage %v failed", k)
		}
		mustHold(t, b)
		if sh.lookup(k) != nil {
			t.Fatalf("%v still indexed after its flush", k)
		}
		for _, later := range keys[i+1:] {
			if sh.lookup(later) == nil {
				t.Fatalf("flushing %v lost %v", k, later)
			}
		}
	}
	if sh.runs != 0 || sh.live != 0 {
		t.Errorf("%d runs, %d keys left", sh.runs, sh.live)
	}
}

// TestRunIndexLeafReuse: a leaf emptied by its run's last flush serves the
// next new run, of another object, with no trace of the first.
func TestRunIndexLeafReuse(t *testing.T) {
	b, sh, pool := indexRig(t)
	for i := range PageIndex(runLen) {
		b.Put(Key{pool, 1, i}, nil)
	}
	first := sh.lookup(Key{pool, 1, 0}).leaf
	for i := range PageIndex(runLen) {
		b.FlushPage(Key{pool, 1, i})
	}
	if sh.free != first || sh.runs != 0 {
		t.Fatalf("emptied leaf not on the free list (runs %d)", sh.runs)
	}
	k := Key{pool, 2, runLen + 5}
	b.Put(k, nil)
	mustHold(t, b)
	e := sh.lookup(k)
	if e == nil || e.leaf != first || e.key() != k || len(sh.chunks) != 1 {
		t.Fatalf("new run got entry %v of a fresh leaf (%d chunks), want the reused one", e, len(sh.chunks))
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

// TestRunIndexRemoveInEach: a loop over each that removes the entry it is
// handed, emptying leaves as it goes, sees every key exactly once.
func TestRunIndexRemoveInEach(t *testing.T) {
	b, sh, pool := indexRig(t)
	want := map[Key]bool{}
	for _, k := range []Key{{pool, 1, 3}, {pool, 1, 70}, {pool, 1, 71}, {pool, 2, 0}, {pool, 1, 63}} {
		b.Put(k, nil)
		want[k] = true
	}
	sh.mu.Lock()
	for e := range sh.each {
		k := e.key()
		if !want[k] {
			t.Fatalf("each handed %v twice, or a key never put", k)
		}
		delete(want, k)
		b.dropEntry(sh, e)
	}
	sh.mu.Unlock()
	if len(want) != 0 {
		t.Errorf("each skipped %v", want)
	}
	mustHold(t, b)
	if sh.runs != 0 || sh.free == nil {
		t.Errorf("%d runs left, free list %v", sh.runs, sh.free)
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

// TestRunIndexTagCollision: two runs whose table tags are equal share a
// home slot; lookups tell them apart by the full run key, and removing the
// first one placed shifts the second back into reach.
func TestRunIndexTagCollision(t *testing.T) {
	b, sh, pool := indexRig(t)
	seen := map[uint32]ObjectID{}
	var a, c Key
	for o := ObjectID(0); ; o++ {
		k := Key{pool, o, 0}
		tag := uint32(k.hash() >> 32)
		if prev, ok := seen[tag]; ok {
			a, c = Key{pool, prev, 0}, k
			break
		}
		seen[tag] = o
	}
	b.Put(a, nil)
	b.Put(Key{c.Pool, c.Object, runMask}, nil)
	mustHold(t, b)
	if sh.lookup(c) != nil || sh.lookup(Key{a.Pool, a.Object, runMask}) != nil {
		t.Fatal("a key of one colliding run was found in the other's leaf")
	}
	if sh.lookup(a) == nil || sh.lookup(Key{c.Pool, c.Object, runMask}) == nil {
		t.Fatal("a colliding run is lost")
	}
	home := uint32(a.hash()>>32) & uint32(len(sh.slots)-1)
	if sh.slots[home].lf != sh.lookup(a).leaf {
		t.Fatal("the first colliding run does not sit in the shared home slot")
	}
	b.FlushPage(a)
	mustHold(t, b)
	e := sh.lookup(Key{c.Pool, c.Object, runMask})
	if e == nil || sh.slots[home].lf != e.leaf {
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

// indexBytesPerKey is the heap one stored key costs a one-stripe MetaStore
// backend — index, leaves and the store's handle — when n keys are put in
// the shape key gives.
func indexBytesPerKey(t *testing.T, n int, key func(pool PoolID, i int) Key) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b := NewBackend(mem.Pages(n), NewMetaStore(testPage))
	pool := b.NewPool(1, Persistent)
	for i := range n {
		if b.Put(key(pool, i), nil) != STmem {
			t.Fatalf("put %d failed", i)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(b)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// TestIndexHeapPerKey bounds what a key costs when keys share no run: one
// page per object, as a key-value client may store them, and every third
// index of three interleaved objects. The first key of a run pays for its
// whole leaf, so a key alone in its run costs one leaf and its table slot,
// under a sixth of the page it indexes; dense keys cost no more than the
// per-key table the run index replaced (about 90 bytes).
func TestIndexHeapPerKey(t *testing.T) {
	const n = 1 << 14
	for _, c := range []struct {
		name string
		key  func(PoolID, int) Key
		max  float64
	}{
		{"dense", func(p PoolID, i int) Key { return Key{p, 1, PageIndex(i)} }, 96},
		{"object-per-key", func(p PoolID, i int) Key { return Key{p, ObjectID(i), 0} }, testPage / 6},
		{"stride-3", func(p PoolID, i int) Key { return Key{p, ObjectID(i % 3), PageIndex(i)} }, 256},
	} {
		if got := indexBytesPerKey(t, n, c.key); got > c.max {
			t.Errorf("%s: %.0f heap bytes per key, want <= %.0f", c.name, got, c.max)
		}
	}
}
