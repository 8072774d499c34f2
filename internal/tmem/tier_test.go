package tmem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"smartmem/internal/mem"
)

// twoNodes wires a small local backend to a larger peer through a
// loopback-transported remote tier, the tier-stack topology the cluster
// runtime assembles.
func twoNodes(localPages, peerPages mem.Pages) (local, peer *Backend) {
	local = NewBackend(localPages, NewMetaStore(testPage))
	peer = NewBackend(peerPages, NewMetaStore(testPage))
	local.AttachTier(NewRemoteTier("peer", NewLoopback(peer), 1000))
	return local, peer
}

func TestRemoteTierAbsorbsFrameOverflow(t *testing.T) {
	local, peer := twoNodes(4, 100)
	pool := local.NewPool(1, Persistent)

	// 10 persistent puts against 4 local frames: the overflow must land on
	// the peer instead of failing (the guest would otherwise swap to disk).
	for i := 0; i < 10; i++ {
		if st := local.Put(Key{Pool: pool, Object: 1, Index: PageIndex(i)}, nil); st != STmem {
			t.Fatalf("Put %d = %v, want S_TMEM via remote tier", i, st)
		}
	}
	if got := local.UsedBy(1); got != 4 {
		t.Errorf("local used = %d, want 4", got)
	}
	if got := peer.UsedBy(1000); got != 6 {
		t.Errorf("peer remote-guest used = %d, want 6", got)
	}
	st := local.Tiers()[0].Stats()
	if st.Puts != 6 || st.PutsOK != 6 {
		t.Errorf("tier stats = %+v, want 6 puts, 6 ok", st)
	}

	// Every page must be retrievable, wherever it sits.
	for i := 0; i < 10; i++ {
		key := Key{Pool: pool, Object: 1, Index: PageIndex(i)}
		if !local.Contains(key) {
			t.Errorf("Contains(%v) = false", key)
		}
		if st := local.Get(key, nil); st != STmem {
			t.Errorf("Get %d = %v", i, st)
		}
	}
	c, _ := local.Counts(1)
	if c.GetsHit != 10 {
		t.Errorf("gets_hit = %d, want 10 (remote hits count)", c.GetsHit)
	}

	// Flushes reach the tier that holds the page.
	for i := 0; i < 10; i++ {
		if st := local.FlushPage(Key{Pool: pool, Object: 1, Index: PageIndex(i)}); st != STmem {
			t.Errorf("FlushPage %d = %v", i, st)
		}
	}
	if peer.UsedBy(1000) != 0 || local.UsedBy(1) != 0 {
		t.Errorf("after flush: local=%d peer=%d, want 0/0", local.UsedBy(1), peer.UsedBy(1000))
	}
	for _, b := range []*Backend{local, peer} {
		if err := b.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

// TestPeerPagesNeverCascade: two nodes ship overflow to each other through
// Loopbacks. Node B is full, so it refuses what node A ships past its room;
// those refusals must stand. A page B takes for A never goes on into B's
// own tiers, where it would bounce back to A.
func TestPeerPagesNeverCascade(t *testing.T) {
	a := NewBackend(16, NewMetaStore(testPage))
	b := NewBackend(10, NewMetaStore(testPage))
	toB := NewRemoteTier("b", NewLoopback(b), 1000)
	toA := NewRemoteTier("a", NewLoopback(a), 1001)
	a.AttachTier(toB)
	b.AttachTier(toA)

	// B's own VM takes 8 of its 10 frames and never overflows.
	poolB := b.NewPool(2, Persistent)
	for i := 0; i < 8; i++ {
		if st := b.Put(Key{Pool: poolB, Object: 1, Index: PageIndex(i)}, nil); st != STmem {
			t.Fatalf("B put %d = %v", i, st)
		}
	}
	// A's VM holds 4 pages locally; of its 12 overflow pages, half per
	// page and half as a batch, B has room for 2.
	a.SetTarget(1, 4)
	poolA := a.NewPool(1, Persistent)
	ok := 0
	for i := 0; i < 10; i++ {
		if a.Put(Key{Pool: poolA, Object: 1, Index: PageIndex(i)}, nil) == STmem {
			ok++
		}
	}
	keys := make([]Key, 6)
	for i := range keys {
		keys[i] = Key{Pool: poolA, Object: 2, Index: PageIndex(i)}
	}
	sts := make([]Status, len(keys))
	a.PutBatch(keys, nil, sts)
	for _, st := range sts {
		if st == STmem {
			ok++
		}
	}

	if ok != 6 || b.FreePages() != 0 {
		t.Errorf("A stored %d pages with B at %d free frames, want 6 (4 local, 2 on B) and 0", ok, b.FreePages())
	}
	if st := toB.Stats(); st.Puts != 12 || st.PutsOK != 2 {
		t.Errorf("A's remote tier = %+v, want 12 puts, 2 ok", st)
	}
	if st := toA.Stats(); st.Puts != 0 {
		t.Errorf("B's remote tier = %+v, want no puts: B cascaded pages it took for A", st)
	}
	if used := a.UsedBy(1001); used != 0 {
		t.Errorf("A holds %d pages for B, want 0: A's own pages bounced back", used)
	}
	for _, n := range []*Backend{a, b} {
		if err := n.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

func TestRemoteTierAbsorbsTargetOverflow(t *testing.T) {
	local, peer := twoNodes(64, 64)
	pool := local.NewPool(1, Persistent)
	local.SetTarget(1, 2)

	for i := 0; i < 5; i++ {
		if st := local.Put(Key{Pool: pool, Object: 0, Index: PageIndex(i)}, nil); st != STmem {
			t.Fatalf("Put %d = %v", i, st)
		}
	}
	if local.UsedBy(1) != 2 {
		t.Errorf("local used = %d, want target-capped 2", local.UsedBy(1))
	}
	if peer.UsedBy(1000) != 3 {
		t.Errorf("peer used = %d, want 3", peer.UsedBy(1000))
	}
	// Local failures stay visible to policies: puts_succ counts only the
	// locally-absorbed puts (the overflow pressure drives Algorithm 4).
	ms := local.Sample(1)
	v, _ := ms.Find(1)
	if v.PutsTotal != 5 || v.PutsSucc != 2 {
		t.Errorf("sample = total %d / succ %d, want 5/2", v.PutsTotal, v.PutsSucc)
	}
}

func TestRemoteTierEphemeralGetIsDestructive(t *testing.T) {
	local, peer := twoNodes(1, 64)
	pool := local.NewPool(1, Ephemeral)

	// Fill the single local frame, then overflow one ephemeral page.
	// The local put path evicts the resident ephemeral page first (Xen
	// sacrifices ephemeral pages before failing), so force overflow with a
	// persistent page occupying the frame.
	ppool := local.NewPool(1, Persistent)
	if st := local.Put(Key{Pool: ppool, Object: 0, Index: 0}, nil); st != STmem {
		t.Fatal(st)
	}
	key := Key{Pool: pool, Object: 7, Index: 1}
	if st := local.Put(key, nil); st != STmem {
		t.Fatalf("overflow put = %v", st)
	}
	if peer.UsedBy(1000) != 1 {
		t.Fatalf("peer used = %d, want 1", peer.UsedBy(1000))
	}
	if st := local.Get(key, nil); st != STmem {
		t.Fatalf("remote ephemeral get = %v", st)
	}
	// Destructive: the copy is gone from the peer and from the tracking.
	if st := local.Get(key, nil); st != ETmem {
		t.Errorf("second get = %v, want E_TMEM", st)
	}
	if peer.UsedBy(1000) != 0 {
		t.Errorf("peer used after destructive get = %d", peer.UsedBy(1000))
	}
	if err := local.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRemoteTierPeerEvictionIsAMiss(t *testing.T) {
	// The peer may evict ephemeral remote pages under its own pressure; the
	// local node must treat that as a miss and drop its tracking.
	local, peer := twoNodes(1, 2)
	epool := local.NewPool(1, Ephemeral)
	ppool := local.NewPool(1, Persistent)
	if st := local.Put(Key{Pool: ppool, Object: 0, Index: 0}, nil); st != STmem {
		t.Fatal(st)
	}
	key := Key{Pool: epool, Object: 1, Index: 1}
	if st := local.Put(key, nil); st != STmem {
		t.Fatalf("overflow put = %v", st)
	}
	// Exhaust the peer so it evicts the remote ephemeral page.
	peerPool := peer.NewPool(1, Persistent)
	for i := 0; i < 2; i++ {
		peer.Put(Key{Pool: peerPool, Object: 0, Index: PageIndex(i)}, nil)
	}
	if st := local.Get(key, nil); st != ETmem {
		t.Errorf("get after peer eviction = %v, want E_TMEM", st)
	}
	if err := local.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRemoteTierLocalPutSupersedesStaleCopy(t *testing.T) {
	local, peer := twoNodes(1, 64)
	pool := local.NewPool(1, Persistent)

	k0 := Key{Pool: pool, Object: 0, Index: 0}
	k1 := Key{Pool: pool, Object: 0, Index: 1}
	if st := local.Put(k0, nil); st != STmem { // fills the only local frame
		t.Fatal(st)
	}
	if st := local.Put(k1, nil); st != STmem { // overflows to the peer
		t.Fatal(st)
	}
	// Free the local frame, then re-put k1: it must land locally and the
	// stale peer copy must be dropped so it can never shadow new contents.
	if st := local.FlushPage(k0); st != STmem {
		t.Fatal(st)
	}
	if st := local.Put(k1, nil); st != STmem {
		t.Fatalf("re-put = %v", st)
	}
	if local.UsedBy(1) != 1 {
		t.Errorf("local used = %d, want 1", local.UsedBy(1))
	}
	if peer.UsedBy(1000) != 0 {
		t.Errorf("peer still holds stale copy: used = %d", peer.UsedBy(1000))
	}
	if err := local.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFlushObjectSpansTiers(t *testing.T) {
	local, peer := twoNodes(3, 64)
	pool := local.NewPool(1, Persistent)
	for i := 0; i < 8; i++ {
		if st := local.Put(Key{Pool: pool, Object: 42, Index: PageIndex(i)}, nil); st != STmem {
			t.Fatal(st)
		}
	}
	n, st := local.FlushObject(pool, 42)
	if st != STmem || n != 8 {
		t.Errorf("FlushObject = (%d, %v), want (8, S_TMEM)", n, st)
	}
	if peer.UsedBy(1000) != 0 {
		t.Errorf("peer used after object flush = %d", peer.UsedBy(1000))
	}
	c, _ := local.Counts(1)
	if c.Flushes != 8 {
		t.Errorf("flushes = %d, want 8", c.Flushes)
	}
}

func TestUnregisterVMDropsRemotePages(t *testing.T) {
	local, peer := twoNodes(2, 64)
	pool := local.NewPool(1, Persistent)
	for i := 0; i < 6; i++ {
		local.Put(Key{Pool: pool, Object: 0, Index: PageIndex(i)}, nil)
	}
	if peer.UsedBy(1000) == 0 {
		t.Fatal("expected overflow before unregister")
	}
	local.UnregisterVM(1)
	if got := peer.UsedBy(1000); got != 0 {
		t.Errorf("peer used after VM shutdown = %d, want 0", got)
	}
	for _, b := range []*Backend{local, peer} {
		if err := b.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

// brokenService fails every call after an optional number of successes.
type brokenService struct {
	okPuts int
	calls  int
}

var errTorn = errors.New("wire torn")

func (s *brokenService) NewPool(VMID, PoolKind) (PoolID, error) { return 7, nil }
func (s *brokenService) Put(Key, []byte) (Status, error) {
	s.calls++
	if s.calls <= s.okPuts {
		return STmem, nil
	}
	return EInval, errTorn
}
func (s *brokenService) Get(Key) (Status, []byte, error)          { return EInval, nil, errTorn }
func (s *brokenService) GetInto(Key, []byte) (Status, error)      { return EInval, errTorn }
func (s *brokenService) FlushPage(Key) (Status, error)            { return EInval, errTorn }
func (s *brokenService) DestroyPool(PoolID) (Status, error)       { return EInval, errTorn }
func (s *brokenService) PutBatch([]Key, [][]byte, []Status) error { return errTorn }
func (s *brokenService) GetBatch([]Key, [][]byte, []Status) error { return errTorn }
func (s *brokenService) FlushObjectCount(PoolID, ObjectID) (mem.Pages, Status, error) {
	return 0, EInval, errTorn
}

func TestRemoteTierTransportErrorDegradesToDisk(t *testing.T) {
	local := NewBackend(1, NewMetaStore(testPage))
	svc := &brokenService{okPuts: 1}
	tier := NewRemoteTier("flaky", svc, 1000)
	local.AttachTier(tier)
	pool := local.NewPool(1, Persistent)

	if st := local.Put(Key{Pool: pool, Object: 0, Index: 0}, nil); st != STmem {
		t.Fatal(st)
	}
	// First overflow succeeds, second hits the torn wire: the put must
	// degrade to E_TMEM (guest swaps to disk) without wedging anything.
	if st := local.Put(Key{Pool: pool, Object: 0, Index: 1}, nil); st != STmem {
		t.Fatalf("first overflow = %v", st)
	}
	if st := local.Put(Key{Pool: pool, Object: 0, Index: 2}, nil); st != ETmem {
		t.Errorf("put over torn wire = %v, want E_TMEM", st)
	}
	ts := tier.Stats()
	if ts.Errors != 1 {
		t.Errorf("tier errors = %d, want 1", ts.Errors)
	}
	// The tier is down: further overflow is refused locally, without
	// touching the service again.
	calls := svc.calls
	if st := local.Put(Key{Pool: pool, Object: 0, Index: 3}, nil); st != ETmem {
		t.Errorf("put on downed tier = %v", st)
	}
	if svc.calls != calls {
		t.Errorf("downed tier still called the transport (%d -> %d)", calls, svc.calls)
	}
}

// TestRemoteTierConcurrent hammers a striped local store whose overflow
// lands on a striped peer from many goroutines; run with -race. It checks
// that the tier path keeps all invariants intact under concurrency.
func TestRemoteTierConcurrent(t *testing.T) {
	local := newShardedBackend(128, 8)
	peer := newShardedBackend(1024, 8)
	local.AttachTier(NewRemoteTier("peer", NewLoopback(peer), 1000))

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		pool := local.NewPool(VMID(w), Persistent)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := Key{Pool: pool, Object: ObjectID(i % 5), Index: PageIndex(i)}
				local.Put(key, fill(byte(i)))
				local.Get(key, nil)
				if i%3 == 0 {
					local.FlushPage(key)
				}
			}
			local.FlushObject(pool, 0)
		}()
	}
	wg.Wait()
	for _, b := range []*Backend{local, peer} {
		if err := b.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

// benchTierOps runs the put/get/flush mix against an over-committed local
// store; with a remote tier the overflow is absorbed by the peer (puts keep
// succeeding, i.e. the guest's disk-swap fallback is never taken), without
// it the same puts fail.
func benchTierOps(b *testing.B, withTier bool) {
	shards := runtime.GOMAXPROCS(0)
	local := NewBackendOpts(1024, Options{
		Shards:   shards,
		NewStore: func() PageStore { return NewMetaStore(testPage) },
	})
	if withTier {
		peer := NewBackendOpts(1<<20, Options{
			Shards:   shards,
			NewStore: func() PageStore { return NewMetaStore(testPage) },
		})
		local.AttachTier(NewRemoteTier("peer", NewLoopback(peer), 1000))
	}
	var pools []PoolID
	for w := 0; w < 16; w++ {
		pools = append(pools, local.NewPool(VMID(w), Persistent))
	}
	var widx uint64
	var mu sync.Mutex
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		pool := pools[int(widx)%len(pools)]
		widx++
		mu.Unlock()
		i := 0
		for pb.Next() {
			key := Key{Pool: pool, Object: ObjectID(i >> 12), Index: PageIndex(i)}
			local.Put(key, nil)
			if i%4 == 0 {
				local.Get(key, nil)
			}
			i++
		}
	})
}

// BenchmarkRemoteTier compares the over-committed store with and without a
// loopback-transported remote tier. The "remote" variant's puts succeed
// (absorbed by the peer) instead of failing to the disk-swap path, and the
// remote path adds no lock contention to the local striped store — compare
// against BenchmarkBackendParallel for the uncontended local hot path.
func BenchmarkRemoteTier(b *testing.B) {
	b.Run("local-only", func(b *testing.B) { benchTierOps(b, false) })
	b.Run("remote", func(b *testing.B) { benchTierOps(b, true) })
	// Batched variants ship overflow in runs; round-trips/op reports the
	// transport amortization (<= 1/run-length for overflow-dominated load,
	// vs ~1 for the per-page protocol above).
	b.Run("remote-batch-4", func(b *testing.B) { benchTierBatch(b, 4) })
	b.Run("remote-batch-16", func(b *testing.B) { benchTierBatch(b, 16) })
}

// TestBenchmarkTopologySane pins what BenchmarkRemoteTier claims: on the
// over-committed topology, puts that fail locally succeed remotely.
func TestBenchmarkTopologySane(t *testing.T) {
	local, peer := twoNodes(8, 1024)
	pool := local.NewPool(1, Persistent)
	okLocal, okRemote := 0, 0
	for i := 0; i < 64; i++ {
		st := local.Put(Key{Pool: pool, Object: 0, Index: PageIndex(i)}, nil)
		if st != STmem {
			t.Fatalf("put %d = %v — the disk-swap fallback would trigger", i, st)
		}
		if mem.Pages(i) < 8 {
			okLocal++
		} else {
			okRemote++
		}
	}
	if got := peer.UsedBy(1000); got != mem.Pages(okRemote) {
		t.Errorf("peer absorbed %d pages, want %d", got, okRemote)
	}
	_ = fmt.Sprintf("%d/%d", okLocal, okRemote)
}

// FlushObject's pages-freed count must reflect what the tiers actually
// held: pages the peer already evicted must not be credited.
func TestFlushObjectCountExactAfterPeerEviction(t *testing.T) {
	local, peer := twoNodes(1, 3)
	epool := local.NewPool(1, Ephemeral)
	ppool := local.NewPool(1, Persistent)
	if st := local.Put(Key{Pool: ppool, Object: 0, Index: 0}, nil); st != STmem {
		t.Fatal(st)
	}
	// Three ephemeral overflow pages of one object land on the peer.
	for i := 1; i <= 3; i++ {
		if st := local.Put(Key{Pool: epool, Object: 5, Index: PageIndex(i)}, nil); st != STmem {
			t.Fatalf("overflow put %d = %v", i, st)
		}
	}
	// The peer's own pressure evicts two of them.
	peerPool := peer.NewPool(1, Persistent)
	for i := 0; i < 2; i++ {
		if st := peer.Put(Key{Pool: peerPool, Object: 0, Index: PageIndex(i)}, nil); st != STmem {
			t.Fatalf("peer put %d = %v", i, st)
		}
	}
	n, st := local.FlushObject(epool, 5)
	if st != STmem || n != 1 {
		t.Errorf("FlushObject = (%d, %v), want (1, S_TMEM): only one page was still held", n, st)
	}
	c, _ := local.Counts(1)
	if c.Flushes != 1 {
		t.Errorf("cumul flushes = %d, want 1", c.Flushes)
	}
	if err := local.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// tripCountingSvc wraps Loopback with an atomic transport round-trip
// counter (benchmarks run parallel goroutines).
type tripCountingSvc struct {
	inner *Loopback
	trips atomic.Uint64
}

func (c *tripCountingSvc) NewPool(vm VMID, kind PoolKind) (PoolID, error) {
	c.trips.Add(1)
	return c.inner.NewPool(vm, kind)
}
func (c *tripCountingSvc) Put(key Key, data []byte) (Status, error) {
	c.trips.Add(1)
	return c.inner.Put(key, data)
}
func (c *tripCountingSvc) Get(key Key) (Status, []byte, error) {
	c.trips.Add(1)
	return c.inner.Get(key)
}
func (c *tripCountingSvc) GetInto(key Key, dst []byte) (Status, error) {
	c.trips.Add(1)
	return c.inner.GetInto(key, dst)
}
func (c *tripCountingSvc) FlushPage(key Key) (Status, error) {
	c.trips.Add(1)
	return c.inner.FlushPage(key)
}
func (c *tripCountingSvc) FlushObjectCount(pool PoolID, object ObjectID) (mem.Pages, Status, error) {
	c.trips.Add(1)
	return c.inner.FlushObjectCount(pool, object)
}
func (c *tripCountingSvc) DestroyPool(pool PoolID) (Status, error) {
	c.trips.Add(1)
	return c.inner.DestroyPool(pool)
}
func (c *tripCountingSvc) PutBatch(keys []Key, datas [][]byte, sts []Status) error {
	c.trips.Add(1)
	return c.inner.PutBatch(keys, datas, sts)
}
func (c *tripCountingSvc) GetBatch(keys []Key, dsts [][]byte, sts []Status) error {
	c.trips.Add(1)
	return c.inner.GetBatch(keys, dsts, sts)
}

// benchTierBatch drives the same over-committed topology as benchTierOps
// but issues the puts in runs through PutBatch. With run length >= 4 the
// transport round trips drop to <= 1/4 of the per-page op count (the
// store-level amortization the batch frames exist for); the bench reports
// the measured ratio.
func benchTierBatch(b *testing.B, runLen int) {
	shards := runtime.GOMAXPROCS(0)
	local := NewBackendOpts(1024, Options{
		Shards:   shards,
		NewStore: func() PageStore { return NewMetaStore(testPage) },
	})
	peer := NewBackendOpts(1<<20, Options{
		Shards:   shards,
		NewStore: func() PageStore { return NewMetaStore(testPage) },
	})
	svc := &tripCountingSvc{inner: NewLoopback(peer)}
	local.AttachTier(NewRemoteTier("peer", svc, 1000))
	var pools []PoolID
	for w := 0; w < 16; w++ {
		pools = append(pools, local.NewPool(VMID(w), Persistent))
	}
	var widx uint64
	var mu sync.Mutex
	var ops atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		pool := pools[int(widx)%len(pools)]
		widx++
		mu.Unlock()
		keys := make([]Key, runLen)
		sts := make([]Status, runLen)
		i := 0
		for pb.Next() {
			for j := range keys {
				keys[j] = Key{Pool: pool, Object: ObjectID(i >> 12), Index: PageIndex(i)}
				i++
			}
			local.PutBatch(keys, nil, sts)
			ops.Add(uint64(runLen))
			if i%4 == 0 {
				local.GetBatch(keys, nil, sts)
				ops.Add(uint64(runLen))
			}
		}
	})
	b.StopTimer()
	if n := ops.Load(); n > 0 {
		b.ReportMetric(float64(svc.trips.Load())/float64(n), "round-trips/op")
	}
}

// TestBatchTripRatio pins the BenchmarkRemoteTier claim outside the bench
// harness: shipping overflow in runs of >= 4 pays <= 1/4 the transport
// round trips of the per-page protocol.
func TestBatchTripRatio(t *testing.T) {
	local := NewBackend(16, NewMetaStore(testPage))
	peer := NewBackend(1<<16, NewMetaStore(testPage))
	svc := &tripCountingSvc{inner: NewLoopback(peer)}
	local.AttachTier(NewRemoteTier("peer", svc, 1000))
	pool := local.NewPool(1, Persistent)

	const runLen, runs = 8, 64
	keys := make([]Key, runLen)
	sts := make([]Status, runLen)
	ops := 0
	for r := 0; r < runs; r++ {
		for j := range keys {
			keys[j] = Key{Pool: pool, Object: 9, Index: PageIndex(r*runLen + j)}
		}
		local.PutBatch(keys, nil, sts)
		ops += runLen
	}
	// Everything past the 16 local frames overflowed; each batch cost at
	// most one transport trip (plus the one-time pool creation).
	overflowOps := ops - 16
	trips := int(svc.trips.Load())
	if trips > overflowOps/4 {
		t.Errorf("batch transport trips = %d for %d overflow ops, want <= 1/4 (per-page would pay %d)",
			trips, overflowOps, overflowOps)
	}
}

// TestRunsOfOneMatchPerPage: over real tiers — compressed, then remote
// through a Loopback to a peer backend — the same seeded ops issued per page
// and, for puts and gets, as batches of one (PutBatch, GetBatch) must give
// the same answers and leave the same sample, tier counters, compressed
// accounting and peer state: both shapes take the one tier walk.
func TestRunsOfOneMatchPerPage(t *testing.T) {
	type node struct {
		b, peer *Backend
		comp    *CompressedTier
		remote  *RemoteTier
	}
	build := func() *node {
		n := &node{
			b:    NewBackend(24, NewDataStore(testPage)),
			peer: NewBackend(32, NewDataStore(testPage)),
			comp: NewCompressedTier(CompressedTierConfig{PageSize: testPage, CapacityBytes: 6 * testPage}),
		}
		n.remote = NewRemoteTier("peer", NewLoopback(n.peer), 1000)
		n.b.AttachTier(n.comp)
		n.b.AttachTier(n.remote)
		return n
	}
	perPage, runs := build(), build()
	var pools []PoolID
	for _, vm := range []VMID{1, 2} {
		for _, kind := range []PoolKind{Persistent, Ephemeral} {
			pools = append(pools, perPage.b.NewPool(vm, kind))
			runs.b.NewPool(vm, kind)
		}
	}

	rng := rand.New(rand.NewSource(0x51D3))
	text := codecTestPages(testPage)["text"]
	dstA, dstB := make([]byte, testPage), make([]byte, testPage)
	sts := make([]Status, 1)
	for i := 0; i < 4000; i++ {
		k := Key{Pool: pools[rng.Intn(len(pools))], Object: ObjectID(rng.Intn(4)), Index: PageIndex(rng.Intn(32))}
		var op string
		var got, want Status
		switch r := rng.Intn(100); {
		case r < 45:
			var data []byte // nil: the zero page
			switch rng.Intn(3) {
			case 1: // compressible, and distinct enough to defeat dedup now and then
				data = bytes.Clone(text)
				data[rng.Intn(testPage)] = byte(rng.Intn(4))
			case 2: // incompressible
				data = make([]byte, testPage)
				rng.Read(data)
			}
			op, want = "put", perPage.b.Put(k, data)
			runs.b.PutBatch([]Key{k}, [][]byte{data}, sts)
			got = sts[0]
		case r < 65:
			op, want = "get", perPage.b.Get(k, dstA)
			runs.b.GetBatch([]Key{k}, [][]byte{dstB}, sts)
			if got = sts[0]; got == STmem && !bytes.Equal(dstA, dstB) {
				t.Fatalf("op %d: get %v returned different bytes", i, k)
			}
		case r < 92:
			op, want, got = "flush", perPage.b.FlushPage(k), runs.b.FlushPage(k)
		case r < 95:
			n1, st1 := perPage.b.FlushObject(k.Pool, k.Object)
			n2, st2 := runs.b.FlushObject(k.Pool, k.Object)
			if n1 != n2 || st1 != st2 {
				t.Fatalf("op %d: FlushObject %v = %d %v per page, %d %v after runs", i, k, n1, st1, n2, st2)
			}
			continue
		default:
			vm, target := VMID(1+rng.Intn(2)), Unlimited
			if rng.Intn(2) == 0 {
				target = mem.Pages(rng.Intn(16))
			}
			perPage.b.SetTarget(vm, target)
			runs.b.SetTarget(vm, target)
			continue
		}
		if got != want {
			t.Fatalf("op %d: %s %v = %v per page, %v as a run of one", i, op, k, want, got)
		}
	}

	if a, b := perPage.b.Sample(1), runs.b.Sample(1); !reflect.DeepEqual(a, b) {
		t.Errorf("sample per page %+v\n  as runs of one %+v", a, b)
	}
	for _, vm := range []VMID{1, 2, 1000} {
		a, _ := perPage.b.Counts(vm)
		b, _ := runs.b.Counts(vm)
		pa, _ := perPage.peer.Counts(vm)
		pb, _ := runs.peer.Counts(vm)
		if a != b || pa != pb {
			t.Errorf("vm %d counts per page %+v (peer %+v), as runs of one %+v (peer %+v)", vm, a, pa, b, pb)
		}
	}
	untimed := func(s CompressedTierStats) CompressedTierStats {
		s.CompressNs, s.DecompressNs = 0, 0
		return s
	}
	if a, b := untimed(perPage.comp.CompressedStats()), untimed(runs.comp.CompressedStats()); a != b {
		t.Errorf("compressed tier per page %+v\n  as runs of one %+v", a, b)
	}
	if a, b := perPage.remote.Stats(), runs.remote.Stats(); a != b {
		t.Errorf("remote tier per page %+v, as runs of one %+v", a, b)
	}
	if a, b := perPage.peer.Sample(1), runs.peer.Sample(1); !reflect.DeepEqual(a, b) {
		t.Errorf("peer sample per page %+v\n  as runs of one %+v", a, b)
	}
	if a, b := perPage.peer.Footprint(), runs.peer.Footprint(); a != b {
		t.Errorf("peer footprint per page %d, as runs of one %d", a, b)
	}
	for _, n := range []*node{perPage, runs} {
		for _, b := range []*Backend{n.b, n.peer} {
			if err := b.CheckInvariants(); err != nil {
				t.Error(err)
			}
		}
	}
	if s := perPage.comp.CompressedStats(); s.RejectedFull == 0 || s.PutsOK == 0 || perPage.remote.Stats().PutsOK == 0 {
		t.Errorf("the op mix never filled the compressed tier or reached the remote one: %+v", s)
	}
}
