package tmem

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"smartmem/internal/mem"
)

func newShardedBackend(pages mem.Pages, shards int) *Backend {
	return NewBackendOpts(pages, Options{
		Shards:   shards,
		NewStore: func() PageStore { return NewDataStore(testPage) },
	})
}

func TestShardNormalization(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {1000, 256},
	} {
		b := newShardedBackend(64, tc.in)
		if b.Shards() != tc.want {
			t.Errorf("Shards=%d normalized to %d, want %d", tc.in, b.Shards(), tc.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("nil NewStore did not panic")
		}
	}()
	NewBackendOpts(64, Options{Shards: 4})
}

// The semantics tests of backend_test.go must hold identically on a
// many-shard store: run a representative operation mix on 8 shards and
// cross-check every invariant.
func TestShardedSemanticsMatchSingleShard(t *testing.T) {
	b := newShardedBackend(256, 8)
	pool := b.NewPool(1, Persistent)
	dst := make([]byte, testPage)
	for i := 0; i < 200; i++ {
		key := Key{Pool: pool, Object: ObjectID(i % 7), Index: PageIndex(i)}
		if st := b.Put(key, fill(byte(i))); st != STmem {
			t.Fatalf("Put %d = %v", i, st)
		}
		if st := b.Get(key, dst); st != STmem || dst[0] != byte(i) {
			t.Fatalf("Get %d = %v (dst[0]=%#x)", i, st, dst[0])
		}
	}
	if b.UsedBy(1) != 200 || b.FreePages() != 56 {
		t.Errorf("used=%d free=%d, want 200/56", b.UsedBy(1), b.FreePages())
	}
	if n, st := b.FlushObject(pool, 0); st != STmem || n == 0 {
		t.Errorf("FlushObject = (%d, %v)", n, st)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
	b.UnregisterVM(1)
	if b.FreePages() != 256 {
		t.Errorf("free after unregister = %d, want 256", b.FreePages())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// Capacity is a node-global pool even though the index is striped: puts
// succeed until the node is out of frames, however the keys spread.
func TestShardedCapacityIsGlobal(t *testing.T) {
	b := newShardedBackend(64, 8)
	pool := b.NewPool(1, Persistent)
	ok := 0
	for i := 0; i < 80; i++ {
		if b.Put(Key{Pool: pool, Object: 1, Index: PageIndex(i)}, nil) == STmem {
			ok++
		}
	}
	if ok != 64 {
		t.Errorf("puts succeeded = %d, want 64 (global capacity)", ok)
	}
	if b.FreePages() != 0 {
		t.Errorf("free = %d, want 0", b.FreePages())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// Eviction picks the node-wide oldest ephemeral page even when the victim
// lives in a different shard than the put that needs the frame.
func TestShardedEvictionIsCrossShard(t *testing.T) {
	b := newShardedBackend(32, 4)
	eph := b.NewPool(1, Ephemeral)
	per := b.NewPool(2, Persistent)
	first := Key{Pool: eph, Object: 1, Index: 0}
	for i := 0; i < 32; i++ {
		if st := b.Put(Key{Pool: eph, Object: 1, Index: PageIndex(i)}, nil); st != STmem {
			t.Fatalf("eph Put %d = %v", i, st)
		}
	}
	// Node full: a persistent put must evict the globally oldest page.
	if st := b.Put(Key{Pool: per, Object: 1, Index: 0}, nil); st != STmem {
		t.Fatalf("persistent Put on full node = %v, want S_TMEM via eviction", st)
	}
	if b.Contains(first) {
		t.Error("oldest ephemeral page (stamp order) not the eviction victim")
	}
	c, _ := b.Counts(1)
	if c.EphEvicted != 1 {
		t.Errorf("EphEvicted = %d, want 1", c.EphEvicted)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// Algorithm 1's target check must stay strict under concurrency: puts on
// different shards reserve against one atomic account, so a VM can never
// jointly overshoot its mm_target.
func TestShardedTargetEnforcedAcrossShards(t *testing.T) {
	const target = 10
	b := newShardedBackend(1024, 8)
	pool := b.NewPool(1, Persistent)
	b.SetTarget(1, target)
	var wg sync.WaitGroup
	var succ int64
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ok := 0
			for i := 0; i < 100; i++ {
				key := Key{Pool: pool, Object: ObjectID(w), Index: PageIndex(i)}
				if b.Put(key, nil) == STmem {
					ok++
				}
			}
			mu.Lock()
			succ += int64(ok)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if succ != target {
		t.Errorf("puts succeeded = %d, want exactly %d (strict target)", succ, target)
	}
	if used := b.UsedBy(1); used != target {
		t.Errorf("UsedBy = %d, want %d", used, target)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// Hammer one sharded backend from many goroutines mixing every operation,
// then verify the accounting survived. Run with -race in CI.
func TestShardedConcurrentOps(t *testing.T) {
	b := newShardedBackend(512, 8)
	const workers = 8
	pools := make([]PoolID, workers)
	for i := range pools {
		kind := Persistent
		if i%2 == 1 {
			kind = Ephemeral
		}
		pools[i] = b.NewPool(VMID(i+1), kind)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := pools[w]
			dst := make([]byte, testPage)
			for i := 0; i < 400; i++ {
				key := Key{Pool: pool, Object: ObjectID(i % 5), Index: PageIndex(i % 97)}
				switch i % 7 {
				case 0, 1, 2:
					b.Put(key, fill(byte(i)))
				case 3, 4:
					b.Get(key, dst)
				case 5:
					b.FlushPage(key)
				case 6:
					b.FlushObject(key.Pool, key.Object)
				}
			}
		}(w)
	}
	// Concurrent control-plane traffic: sampling, targets, registration.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			b.Sample(uint64(i + 1))
			b.SetTarget(VMID(i%workers+1), mem.Pages(50+i))
			b.VMs()
			b.Footprint()
		}
	}()
	wg.Wait()
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// Pools can be created and destroyed while other goroutines run the data
// path against them; destroyed pools must leak nothing.
func TestShardedConcurrentPoolLifecycle(t *testing.T) {
	b := newShardedBackend(256, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pool := b.NewPool(VMID(w+1), Persistent)
				for j := 0; j < 20; j++ {
					b.Put(Key{Pool: pool, Object: 1, Index: PageIndex(j)}, nil)
				}
				if err := b.DestroyPool(pool); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if b.FreePages() != 256 {
		t.Errorf("free = %d, want 256 (destroyed pools must release everything)", b.FreePages())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// benchBackend builds a store sized so the put/get/flush cycle never hits
// capacity, isolating lock contention. Each worker cycles through keys of
// its own object, or, with hotRun, all workers share the keys of one run,
// which live behind one stripe lock — as a server's hottest keys do when
// its clients number them consecutively.
func benchParallelOps(b *testing.B, shards int, hotRun bool) {
	be := NewBackendOpts(1<<20, Options{
		Shards:   shards,
		NewStore: func() PageStore { return NewMetaStore(testPage) },
	})
	pool := be.NewPool(1, Persistent)
	var worker uint64
	var mu sync.Mutex
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		worker++
		base := ObjectID(worker) << 32
		mu.Unlock()
		i := uint64(0)
		for pb.Next() {
			i++
			key := Key{Pool: pool, Object: base | ObjectID(i>>14), Index: PageIndex(i)}
			if hotRun {
				key = Key{Pool: pool, Index: PageIndex(i & runMask)}
			}
			be.Put(key, nil)
			be.Get(key, nil)
			be.FlushPage(key)
		}
	})
}

// BenchmarkBackendParallel measures put/get/flush throughput under
// concurrency. shards-1 is the single-mutex baseline the monolithic store
// had; shards-N is the striped hot path, and shards-N-hot-run the same
// stripes with every worker on the keys of one run. Run with -cpu 8 to
// reproduce the scaling target (>= 3x over shards-1 at 8 goroutines).
func BenchmarkBackendParallel(b *testing.B) {
	counts := []int{1, 8}
	if n := runtime.GOMAXPROCS(0); n > 8 {
		counts = append(counts, n)
	}
	for _, n := range counts {
		b.Run(fmt.Sprintf("shards-%d", n), func(b *testing.B) { benchParallelOps(b, n, false) })
		if n > 1 {
			b.Run(fmt.Sprintf("shards-%d-hot-run", n), func(b *testing.B) { benchParallelOps(b, n, true) })
		}
	}
}
