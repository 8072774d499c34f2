package tmem

import (
	"bytes"
	"fmt"
	"testing"

	"smartmem/internal/mem"
)

// countingSvc wraps a PageService and counts transport round trips — the
// quantity the batch frames exist to amortize.
type countingSvc struct {
	inner PageService
	trips int
}

func (c *countingSvc) NewPool(vm VMID, kind PoolKind) (PoolID, error) {
	c.trips++
	return c.inner.NewPool(vm, kind)
}
func (c *countingSvc) Put(key Key, data []byte) (Status, error) {
	c.trips++
	return c.inner.Put(key, data)
}
func (c *countingSvc) Get(key Key) (Status, []byte, error) {
	c.trips++
	return c.inner.Get(key)
}
func (c *countingSvc) GetInto(key Key, dst []byte) (Status, error) {
	c.trips++
	return c.inner.GetInto(key, dst)
}
func (c *countingSvc) FlushPage(key Key) (Status, error) {
	c.trips++
	return c.inner.FlushPage(key)
}
func (c *countingSvc) FlushObjectCount(pool PoolID, object ObjectID) (mem.Pages, Status, error) {
	c.trips++
	return c.inner.FlushObjectCount(pool, object)
}
func (c *countingSvc) DestroyPool(pool PoolID) (Status, error) {
	c.trips++
	return c.inner.DestroyPool(pool)
}
func (c *countingSvc) PutBatch(keys []Key, datas [][]byte, sts []Status) error {
	c.trips++
	return c.inner.PutBatch(keys, datas, sts)
}
func (c *countingSvc) GetBatch(keys []Key, dsts [][]byte, sts []Status) error {
	c.trips++
	return c.inner.GetBatch(keys, dsts, sts)
}

var _ PageService = (*countingSvc)(nil)

func testKeys(pool PoolID, n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{Pool: pool, Object: ObjectID(i >> 4), Index: PageIndex(i)}
	}
	return keys
}

func TestPutBatchGetBatchRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			b := NewBackendOpts(1024, Options{
				Shards:   shards,
				NewStore: func() PageStore { return NewDataStore(testPage) },
			})
			pool := b.NewPool(1, Persistent)
			const n = 64
			keys := testKeys(pool, n)
			datas := make([][]byte, n)
			for i := range datas {
				datas[i] = bytes.Repeat([]byte{byte(i + 1)}, testPage)
			}
			sts := make([]Status, n)
			b.PutBatch(keys, datas, sts)
			for i, st := range sts {
				if st != STmem {
					t.Fatalf("put %d = %v", i, st)
				}
			}
			if got := b.UsedBy(1); got != n {
				t.Fatalf("used = %d, want %d", got, n)
			}
			dsts := make([][]byte, n)
			for i := range dsts {
				dsts[i] = make([]byte, testPage)
			}
			b.GetBatch(keys, dsts, sts)
			for i, st := range sts {
				if st != STmem {
					t.Fatalf("get %d = %v", i, st)
				}
				if !bytes.Equal(dsts[i], datas[i]) {
					t.Fatalf("page %d contents corrupted", i)
				}
			}
			for i, k := range keys {
				if st := b.FlushPage(k); st != STmem {
					t.Fatalf("flush %d = %v", i, st)
				}
			}
			if got := b.UsedBy(1); got != 0 {
				t.Fatalf("used after flush = %d", got)
			}
			if err := b.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBatchMatchesPerOpCounters: a batch must leave exactly the state and
// counters a per-op loop leaves on a single-shard (deterministic) backend.
func TestBatchMatchesPerOpCounters(t *testing.T) {
	build := func() (*Backend, PoolID) {
		b := NewBackend(128, NewMetaStore(testPage)) // small: forces overflow failures
		return b, b.NewPool(1, Persistent)
	}
	const n = 200 // exceeds capacity: mix of successes and failures
	snapshot := func(b *Backend) string {
		c, _ := b.Counts(1)
		return fmt.Sprintf("%+v free=%d used=%d", c, b.FreePages(), b.UsedBy(1))
	}

	ref, refPool := build()
	keys := testKeys(refPool, n)
	for _, k := range keys {
		ref.Put(k, nil)
	}
	for _, k := range keys {
		ref.Get(k, nil)
	}

	got, gotPool := build()
	keys2 := testKeys(gotPool, n)
	sts := make([]Status, n)
	got.PutBatch(keys2, nil, sts)
	got.GetBatch(keys2, nil, sts)

	if a, b := snapshot(ref), snapshot(got); a != b {
		t.Errorf("batch diverged from per-op:\n per-op: %s\n  batch: %s", a, b)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPutBatchOverflowOneRoundTrip pins the acceptance criterion: a run of
// overflow puts crosses the transport in a single batch round trip, not
// one per page — ≤ 1/4 of the per-page op count for run length ≥ 4.
func TestPutBatchOverflowOneRoundTrip(t *testing.T) {
	peer := NewBackend(1<<16, NewMetaStore(testPage))
	svc := &countingSvc{inner: NewLoopback(peer)}
	local := NewBackend(8, NewMetaStore(testPage))
	local.AttachTier(NewRemoteTier("peer", svc, 1000))
	pool := local.NewPool(1, Persistent)

	const n = 32
	keys := testKeys(pool, n)
	sts := make([]Status, n)
	local.PutBatch(keys, nil, sts)
	for i, st := range sts {
		if st != STmem {
			t.Fatalf("put %d = %v (tier should have absorbed the overflow)", i, st)
		}
	}
	overflow := n - 8 // pages the local store could not hold
	if got := peer.UsedBy(1000); got != mem.Pages(overflow) {
		t.Fatalf("peer absorbed %d pages, want %d", got, overflow)
	}
	// One NewPool + one PutBatch. The per-page protocol would have paid
	// `overflow` trips.
	if svc.trips > 2 {
		t.Errorf("overflow run cost %d transport round trips, want <= 2 (per-page would cost %d)",
			svc.trips, overflow)
	}
	if svc.trips > overflow/4 {
		t.Errorf("batch round-trips %d exceed 1/4 of the per-page op count %d", svc.trips, overflow)
	}

	// The overflowed pages come back through one GetBatch round trip.
	svc.trips = 0
	getKeys := keys[8:]
	getSts := make([]Status, len(getKeys))
	local.GetBatch(getKeys, nil, getSts)
	for i, st := range getSts {
		if st != STmem {
			t.Fatalf("get %d = %v", i, st)
		}
	}
	if svc.trips != 1 {
		t.Errorf("tracked-page get run cost %d round trips, want 1", svc.trips)
	}
	if err := local.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPutBatchSupersedeFlushesTierCopy: a duplicate put that lands locally
// must invalidate the stale lower-tier copy, exactly as Put does.
func TestPutBatchSupersedeFlushesTierCopy(t *testing.T) {
	peer := NewBackend(1<<16, NewMetaStore(testPage))
	local := NewBackend(4, NewMetaStore(testPage))
	local.AttachTier(NewRemoteTier("peer", NewLoopback(peer), 1000))
	pool := local.NewPool(1, Persistent)

	keys := testKeys(pool, 8)
	sts := make([]Status, 8)
	local.PutBatch(keys, nil, sts) // 4 land locally, 4 overflow to the peer
	if got := peer.UsedBy(1000); got != 4 {
		t.Fatalf("peer holds %d, want 4", got)
	}
	// Free local room, then re-put everything: the previously overflowed
	// keys land locally and their peer copies must be flushed.
	local.SetTarget(1, Unlimited)
	for _, k := range keys[:4] {
		local.FlushPage(k)
	}
	reSts := make([]Status, 4)
	local.PutBatch(keys[4:], nil, reSts)
	for i, st := range reSts {
		if st != STmem {
			t.Fatalf("re-put %d = %v", i, st)
		}
	}
	if got := peer.UsedBy(1000); got != 0 {
		t.Errorf("stale peer copies remain: %d pages", got)
	}
	if err := local.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// countingTier is a fakeTier that counts its put calls by shape and can be
// told to refuse some keys.
type countingTier struct {
	*fakeTier
	puts, putBatches int
	refuse           func(Key) bool
}

func newCountingTier() *countingTier { return &countingTier{fakeTier: newFakeTier(1 << 20)} }

func (c *countingTier) put(key Key, kind PoolKind, data []byte) Status {
	if c.refuse != nil && c.refuse(key) {
		return ETmem
	}
	return c.fakeTier.Put(key, kind, data)
}

func (c *countingTier) Put(key Key, kind PoolKind, data []byte) Status {
	c.puts++
	return c.put(key, kind, data)
}

func (c *countingTier) PutBatch(keys []Key, kinds []PoolKind, datas [][]byte, sts []Status) {
	c.putBatches++
	for i, k := range keys {
		sts[i] = c.put(k, kinds[i], datas[i])
	}
}

var _ Tier = (*countingTier)(nil)

// fullBackend returns a backend whose local store is already full of
// another pool's pages, so every put into the returned pool overflows.
func fullBackend(t *testing.T, tiers ...Tier) (*Backend, PoolID) {
	t.Helper()
	b := NewBackend(4, NewMetaStore(testPage))
	filler := b.NewPool(9, Persistent)
	for _, k := range testKeys(filler, 4) {
		if st := b.Put(k, nil); st != STmem {
			t.Fatalf("filling the local store: %v", st)
		}
	}
	for _, tier := range tiers {
		b.AttachTier(tier)
	}
	return b, b.NewPool(1, Persistent)
}

// TestPutBatchReoffersRideOneTierBatch: keys already tracked in a tier are
// re-offered to it as one run, like the untracked overflow before them.
func TestPutBatchReoffersRideOneTierBatch(t *testing.T) {
	tier := newCountingTier()
	b, pool := fullBackend(t, tier)
	const n = 16
	keys, sts := testKeys(pool, n), make([]Status, n)

	b.PutBatch(keys, nil, sts) // untracked: the overflow walk
	if tier.putBatches != 1 || tier.puts != 0 || len(tier.pages) != n {
		t.Fatalf("first offer: %d batches, %d single puts, tier holds %d; want 1, 0, %d",
			tier.putBatches, tier.puts, len(tier.pages), n)
	}
	tier.putBatches = 0
	b.PutBatch(keys, nil, sts) // every key tracked in the tier: the re-offer
	if tier.putBatches != 1 || tier.puts != 0 {
		t.Fatalf("re-offer of %d tracked keys: %d batches, %d single puts; want 1 and 0",
			n, tier.putBatches, tier.puts)
	}
	for i, st := range sts {
		if st != STmem {
			t.Fatalf("re-offer %d = %v", i, st)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPutBatchRefusedReofferWalksOtherTiers: a tier that refuses a
// re-offer loses the key's tracking and is not asked a second time; the
// page moves to the next tier that takes it, or the put fails.
func TestPutBatchRefusedReofferWalksOtherTiers(t *testing.T) {
	first, second := newCountingTier(), newCountingTier()
	b, pool := fullBackend(t, first, second)
	const n = 12
	keys, sts := testKeys(pool, n), make([]Status, n)
	b.PutBatch(keys, nil, sts) // all land in the first tier

	first.refuse = func(k Key) bool { return k.Index%2 == 0 }
	second.refuse = func(k Key) bool { return k.Index%4 == 0 }
	first.putBatches, second.putBatches = 0, 0
	b.PutBatch(keys, nil, sts)

	if first.putBatches != 1 || first.puts != 0 {
		t.Errorf("refusing tier was asked %d batches + %d puts, want the one re-offer", first.putBatches, first.puts)
	}
	if second.putBatches != 1 || second.puts != 0 {
		t.Errorf("next tier was asked %d batches + %d puts, want one run of the refused keys", second.putBatches, second.puts)
	}
	for i, k := range keys {
		wantSt, wantTier := STmem, 0
		switch {
		case k.Index%4 == 0:
			wantSt, wantTier = ETmem, -1
		case k.Index%2 == 0:
			wantTier = 1
		}
		if sts[i] != wantSt {
			t.Errorf("put %v = %v, want %v", k, sts[i], wantSt)
		}
		if got := b.shardFor(k).remoteTier(k); got != wantTier {
			t.Errorf("%v tracked in tier %d, want %d", k, got, wantTier)
		}
	}

	// The same history one page at a time ends in the same place.
	pFirst, pSecond := newCountingTier(), newCountingTier()
	pb, ppool := fullBackend(t, pFirst, pSecond)
	pkeys := testKeys(ppool, n)
	for _, k := range pkeys {
		pb.Put(k, nil)
	}
	pFirst.refuse, pSecond.refuse = first.refuse, second.refuse
	for i, k := range pkeys {
		if st := pb.Put(k, nil); st != sts[i] {
			t.Errorf("per-page put %v = %v, batch said %v", k, st, sts[i])
		}
		if got, want := pb.shardFor(k).remoteTier(k), b.shardFor(keys[i]).remoteTier(keys[i]); got != want {
			t.Errorf("per-page put tracks %v in tier %d, batch in %d", k, got, want)
		}
	}
	if len(pFirst.pages) != len(first.pages) || len(pSecond.pages) != len(second.pages) {
		t.Errorf("tiers hold %d/%d pages after per-page puts, %d/%d after the batch",
			len(pFirst.pages), len(pSecond.pages), len(first.pages), len(second.pages))
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmSlabZeroAlloc pins the acceptance criterion: duplicate puts and
// gets against a warm DataStore-backed backend allocate nothing — the slab
// free list recycles page buffers and the shard free list recycles entries.
func TestWarmSlabZeroAlloc(t *testing.T) {
	b := NewBackend(1024, NewDataStore(testPage))
	ppool := b.NewPool(1, Persistent)
	epool := b.NewPool(1, Ephemeral)
	data := make([]byte, testPage)
	dst := make([]byte, testPage)
	// Warm up: high-water the page slab and the index.
	for i := 0; i < 256; i++ {
		b.Put(Key{Pool: ppool, Object: 1, Index: PageIndex(i)}, data)
		b.Put(Key{Pool: epool, Object: 1, Index: PageIndex(i)}, data)
	}
	for i := 0; i < 256; i++ {
		b.FlushPage(Key{Pool: ppool, Object: 1, Index: PageIndex(i)})
		b.Get(Key{Pool: epool, Object: 1, Index: PageIndex(i)}, dst) // destructive
	}

	key := Key{Pool: ppool, Object: 1, Index: 0}
	if st := b.Put(key, data); st != STmem {
		t.Fatal(st)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if b.Put(key, data) != STmem { // duplicate put: replace in place
			t.Fatal("put failed")
		}
		if b.Get(key, dst) != STmem {
			t.Fatal("get missed")
		}
	}); allocs != 0 {
		t.Errorf("warm duplicate put/get = %v allocs/op, want 0", allocs)
	}

	// Fresh put + flush cycle (entry + frame + slab page recycled).
	k2 := Key{Pool: ppool, Object: 2, Index: 1}
	b.Put(k2, data)
	b.FlushPage(k2)
	if allocs := testing.AllocsPerRun(200, func() {
		if b.Put(k2, data) != STmem {
			t.Fatal("put failed")
		}
		if b.FlushPage(k2) != STmem {
			t.Fatal("flush missed")
		}
	}); allocs != 0 {
		t.Errorf("warm put/flush cycle = %v allocs/op, want 0", allocs)
	}

	// Ephemeral put + destructive get cycle through the eviction LRU.
	k3 := Key{Pool: epool, Object: 3, Index: 1}
	b.Put(k3, data)
	b.Get(k3, dst)
	if allocs := testing.AllocsPerRun(200, func() {
		if b.Put(k3, data) != STmem {
			t.Fatal("put failed")
		}
		if b.Get(k3, dst) != STmem {
			t.Fatal("get missed")
		}
	}); allocs != 0 {
		t.Errorf("warm ephemeral put/get = %v allocs/op, want 0", allocs)
	}
}

// yesTier accepts and serves everything and holds nothing: what is left to
// observe is the backend's own tracking of a lower-tier page.
type yesTier struct{}

func (yesTier) Name() string                                     { return "yes" }
func (yesTier) Put(Key, PoolKind, []byte) Status                 { return STmem }
func (yesTier) Get(Key, []byte) Status                           { return STmem }
func (yesTier) FlushPage(Key) Status                             { return STmem }
func (yesTier) DropPool(PoolID)                                  {}
func (yesTier) Stats() TierStats                                 { return TierStats{} }
func (yesTier) FlushObject(PoolID, ObjectID) (mem.Pages, Status) { return 0, STmem }
func (yesTier) PutBatch(_ []Key, _ []PoolKind, _ [][]byte, sts []Status) {
	clear(sts) // the zero Status is STmem
}
func (yesTier) GetBatch(_ []Key, _ [][]byte, sts []Status) { clear(sts) }

// TestWarmIndexZeroAlloc: at steady state the flat index recycles slab
// entries and never grows, so a put→get→flush cycle allocates nothing —
// for a page held locally and for one tracked in a lower tier alike.
func TestWarmIndexZeroAlloc(t *testing.T) {
	b := NewBackend(1024, NewMetaStore(testPage))
	b.AttachTier(yesTier{})
	local := b.NewPool(1, Persistent)
	tracked := b.NewPool(2, Persistent)
	b.SetTarget(2, 0) // every put of VM 2 overflows into the tier
	for name, pool := range map[string]PoolID{"local": local, "tracked": tracked} {
		cycle := func(i int) {
			key := Key{Pool: pool, Object: 1, Index: PageIndex(i % 512)}
			if b.Put(key, nil) != STmem || b.Get(key, nil) != STmem || b.FlushPage(key) != STmem {
				t.Fatalf("%s cycle on %v failed", name, key)
			}
		}
		for i := 0; i < 512; i++ {
			cycle(i)
		}
		i := 0
		if allocs := testing.AllocsPerRun(1000, func() { cycle(i); i++ }); allocs != 0 {
			t.Errorf("%s put/get/flush cycle = %v allocs/op, want 0", name, allocs)
		}
	}
	if got := b.UsedBy(2); got != 0 {
		t.Errorf("VM 2 holds %d local pages, want every put tracked in the tier", got)
	}
}

// TestWarmBatchZeroAlloc: the batch engine's scratch pool must make warm
// GetBatch/PutBatch calls allocation-free too.
func TestWarmBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse")
	}
	b := NewBackend(1024, NewMetaStore(testPage))
	pool := b.NewPool(1, Persistent)
	const n = 64
	keys := testKeys(pool, n)
	sts := make([]Status, n)
	b.PutBatch(keys, nil, sts)
	b.GetBatch(keys, nil, sts)
	b.PutBatch(keys, nil, sts)
	if allocs := testing.AllocsPerRun(100, func() {
		b.PutBatch(keys, nil, sts) // duplicate puts
		b.GetBatch(keys, nil, sts)
		if sts[n-1] != STmem {
			t.Fatal("warm get missed")
		}
	}); allocs != 0 {
		t.Errorf("warm batch cycle = %v allocs/op, want 0", allocs)
	}
}
