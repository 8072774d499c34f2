package tmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"smartmem/internal/mem"
)

func testStoreBasics(t *testing.T, s PageStore) {
	t.Helper()
	if s.PageSize() != testPage {
		t.Fatalf("PageSize = %d", s.PageSize())
	}
	h1, err := s.Save(fill(0x01))
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	h2, err := s.Save(nil) // zero page
	if err != nil {
		t.Fatalf("Save nil: %v", err)
	}
	if h1 == h2 {
		t.Error("handles collide")
	}
	if s.Count() != 2 {
		t.Errorf("Count = %d, want 2", s.Count())
	}
	if err := s.Drop(h1); err != nil {
		t.Fatalf("Drop: %v", err)
	}
	if err := s.Drop(h1); err == nil {
		t.Error("double Drop not detected")
	}
	if err := s.Load(h1, make([]byte, testPage)); err == nil {
		t.Error("Load after Drop not detected")
	}
	dst := make([]byte, testPage)
	if err := s.Load(h2, dst); err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, b := range dst {
		if b != 0 {
			t.Fatal("zero page not zero")
		}
	}
	// Oversized page rejected.
	if _, err := s.Save(make([]byte, testPage+1)); err == nil {
		t.Error("oversized Save not rejected")
	}
	// Short destination rejected.
	if err := s.Load(h2, make([]byte, 8)); err == nil {
		t.Error("short-dst Load not rejected")
	}
}

func TestDataStoreBasics(t *testing.T) { testStoreBasics(t, NewDataStore(testPage)) }
func TestMetaStoreBasics(t *testing.T) { testStoreBasics(t, NewMetaStore(testPage)) }

func TestDataStoreCopiesOnSave(t *testing.T) {
	s := NewDataStore(testPage)
	src := fill(0x7F)
	h, _ := s.Save(src)
	src[0] = 0xFF // mutate caller buffer after Save
	dst := make([]byte, testPage)
	if err := s.Load(h, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0x7F {
		t.Error("store aliases caller buffer instead of copying")
	}
}

func TestMetaStoreFootprintIsSmall(t *testing.T) {
	s := NewMetaStore(testPage)
	for i := 0; i < 1000; i++ {
		if _, err := s.Save(nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.Footprint() >= 1000*int64(testPage)/10 {
		t.Errorf("meta store footprint %d not << page data", s.Footprint())
	}
	if s.Count() != 1000 {
		t.Errorf("Count = %d", s.Count())
	}
}

// TestMetaStoreHandleReuse pins the slab behaviour behind the opaque
// handles: a dropped handle is unknown until Save hands it out again, live
// handles never collide, handles nobody was given are rejected, and Count
// and Footprint follow the live set, not the high-water mark.
func TestMetaStoreHandleReuse(t *testing.T) {
	s := NewMetaStore(testPage)
	dst := make([]byte, testPage)
	var hs []Handle
	for i := 0; i < 8; i++ {
		h, err := s.Save(nil)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for _, h := range []Handle{NoHandle, -7, 8, 1 << 40} {
		if s.Load(h, dst) == nil || s.Drop(h) == nil {
			t.Errorf("handle %d was never issued but is accepted", h)
		}
	}
	for _, h := range hs[2:5] {
		if err := s.Drop(h); err != nil {
			t.Fatal(err)
		}
		if s.Drop(h) == nil {
			t.Errorf("double Drop of %d not detected", h)
		}
		if s.Load(h, dst) == nil {
			t.Errorf("Load of %d after Drop not detected", h)
		}
	}
	if s.Count() != 5 || s.Footprint() != 5*16 {
		t.Errorf("Count = %d, Footprint = %d after 8 saves and 3 drops", s.Count(), s.Footprint())
	}
	live := map[Handle]bool{}
	for _, h := range append(hs[:2:2], hs[5:]...) {
		live[h] = true
	}
	for i := 0; i < 5; i++ { // three reused handles, then two fresh ones
		h, err := s.Save(nil)
		if err != nil {
			t.Fatal(err)
		}
		if live[h] {
			t.Fatalf("Save returned handle %d, which is still live", h)
		}
		live[h] = true
		dst[0] = 0xFF
		if err := s.Load(h, dst); err != nil || dst[0] != 0 {
			t.Errorf("Load(%d) = %v, dst[0] = %#x", h, err, dst[0])
		}
	}
	if s.Count() != 10 || len(s.live) != 10 {
		t.Errorf("Count = %d over %d slots, want 10 over 10 (dropped handles reused first)", s.Count(), len(s.live))
	}
}

// TestMetaStoreSteadyStateZeroAlloc pins 0 allocs/op for Save/Drop cycling
// below the store's high-water mark — the state a simulated tmem pool is in
// for all of a run but its first fill.
func TestMetaStoreSteadyStateZeroAlloc(t *testing.T) {
	s := NewMetaStore(testPage)
	var hs [64]Handle
	for i := range hs {
		hs[i], _ = s.Save(nil)
	}
	for _, h := range hs {
		if err := s.Drop(h); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := range hs {
			hs[i], _ = s.Save(nil)
		}
		for _, h := range hs {
			_ = s.Drop(h) // cannot fail: h was just saved
		}
	})
	if allocs != 0 {
		t.Errorf("MetaStore Save/Drop steady state = %v allocs/op, want 0", allocs)
	}
}

// TestDataStoreMatchesMapModel drives a DataStore and a map of page
// contents with the same random Save (nil, short and full pages), Load,
// Drop and unknown-handle calls over more than three chunks, for a page
// size that fills whole OS pages and one that does not. It starts with a
// reused frame: a short page saved into a dropped full page's frame must
// read back with a zeroed tail.
func TestDataStoreMatchesMapModel(t *testing.T) {
	for _, ps := range []int{testPage, 100} {
		t.Run(fmt.Sprint(ps), func(t *testing.T) {
			s := NewDataStore(ps)
			model := map[Handle][]byte{}
			dst := make([]byte, ps)
			check := func(h Handle) {
				t.Helper()
				if err := s.Load(h, dst); err != nil || !bytes.Equal(dst, model[h]) {
					t.Fatalf("Load(%d) = %v, page differs from the model: %t", h, err, !bytes.Equal(dst, model[h]))
				}
			}

			full := bytes.Repeat([]byte{0xFF}, ps)
			h, _ := s.Save(full)
			if err := s.Drop(h); err != nil {
				t.Fatal(err)
			}
			if h2, _ := s.Save([]byte{0x11, 0x22}); h2 != h {
				t.Fatalf("Save after Drop(%d) = handle %d, want the dropped frame back", h, h2)
			}
			model[h] = append([]byte{0x11, 0x22}, make([]byte, ps-2)...)
			check(h)

			rng := rand.New(rand.NewSource(int64(ps)))
			var live, dropped []Handle
			live = append(live, h)
			var issued Handle = h
			for op := 0; op < 12000; op++ {
				saveShare := 55 // grow to about 5 chunks, then cycle
				if op >= 4000 {
					saveShare = 35
				}
				switch r := rng.Intn(100); {
				case r < saveShare:
					var data []byte
					switch rng.Intn(3) {
					case 1:
						data = make([]byte, 1+rng.Intn(ps-1))
					case 2:
						data = make([]byte, ps)
					}
					rng.Read(data)
					h, err := s.Save(data)
					if err != nil {
						t.Fatal(err)
					}
					if _, ok := model[h]; ok {
						t.Fatalf("Save returned handle %d, which is still live", h)
					}
					model[h] = append(data, make([]byte, ps-len(data))...)
					live = append(live, h)
					issued = max(issued, h)
					check(h)
				case r < saveShare+20 && len(live) > 0:
					i := rng.Intn(len(live))
					h := live[i]
					if err := s.Drop(h); err != nil {
						t.Fatal(err)
					}
					delete(model, h)
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					dropped = append(dropped, h)
				case r < 90 && len(live) > 0:
					check(live[rng.Intn(len(live))])
				default:
					unknown := []Handle{NoHandle, issued + 1, 1 << 40}
					for _, d := range dropped[max(0, len(dropped)-4):] {
						if _, ok := model[d]; !ok {
							unknown = append(unknown, d)
						}
					}
					h := unknown[rng.Intn(len(unknown))]
					if s.Load(h, dst) == nil || s.Drop(h) == nil {
						t.Fatalf("unknown handle %d accepted", h)
					}
				}
				if s.Count() != len(model) || s.Footprint() != int64(len(model)*ps) {
					t.Fatalf("op %d: Count = %d, Footprint = %d, model holds %d pages", op, s.Count(), s.Footprint(), len(model))
				}
			}
			for h := range model {
				check(h)
			}
			if n := len(s.arena.chunks); n < 3 {
				t.Errorf("model run used %d chunks, want at least 3", n)
			}
		})
	}
}

// TestDataStoreSteadyStateZeroAlloc is MetaStore's pin for DataStore: a
// store cycling Save/Load/Drop below its high-water mark reuses frames and
// allocates nothing.
func TestDataStoreSteadyStateZeroAlloc(t *testing.T) {
	s := NewDataStore(testPage)
	page, dst := fill(0x3C), make([]byte, testPage)
	var hs [64]Handle
	for i := range hs {
		hs[i], _ = s.Save(page)
	}
	for _, h := range hs {
		if err := s.Drop(h); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := range hs {
			hs[i], _ = s.Save(page)
		}
		for _, h := range hs {
			_ = s.Load(h, dst) // cannot fail: h was just saved
			_ = s.Drop(h)
		}
	})
	if allocs != 0 {
		t.Errorf("DataStore Save/Load/Drop steady state = %v allocs/op, want 0", allocs)
	}
}

// TestDataStoreFramesOffHeap pins that stored page bytes are not Go heap:
// 4096 saved pages grow HeapAlloc by less than an eighth of their bytes.
func TestDataStoreFramesOffHeap(t *testing.T) {
	if heapChunks {
		t.Skip("frame chunks are heap memory in this build")
	}
	const n = 4096
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewDataStore(testPage)
	page := fill(0x5A)
	for i := 0; i < n; i++ {
		if _, err := s.Save(page); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if limit := int64(n * testPage / 8); grew >= limit {
		t.Errorf("%d saved pages grew the heap by %d bytes, want < %d", n, grew, limit)
	}
	runtime.KeepAlive(s)
}

// TestDataStoreReleasesArenaWhenUnreachable pins the store's cleanup: once
// a store is unreachable, a GC releases (unmaps) every chunk it held.
func TestDataStoreReleasesArenaWhenUnreachable(t *testing.T) {
	base := arenaBytes.Load()
	func() {
		s := NewDataStore(testPage)
		for i := 0; i < 3*framesPerChunk; i++ {
			if _, err := s.Save(nil); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := arenaBytes.Load()-base, int64(3*framesPerChunk*testPage); got != want {
			t.Fatalf("store of %d pages holds %d chunk bytes, want %d", 3*framesPerChunk, got, want)
		}
	}()
	// Cleanups run on their own goroutine after the GC that finds the
	// store unreachable. Other tests' stores may be released meanwhile,
	// which only lowers the count.
	for deadline := time.Now().Add(5 * time.Second); arenaBytes.Load() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("unreachable store still holds %d chunk bytes", arenaBytes.Load()-base)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

func TestStoreRejectsBadPageSize(t *testing.T) {
	for _, mk := range []func(){
		func() { NewDataStore(0) },
		func() { NewMetaStore(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad page size did not panic")
				}
			}()
			mk()
		}()
	}
}

func BenchmarkBackendPut(b *testing.B) {
	be := NewBackend(mem.PagesIn(1<<30, 4096), NewMetaStore(testPage))
	pool := be.NewPool(1, Persistent)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := Key{Pool: pool, Object: ObjectID(i >> 16), Index: PageIndex(i & 0xFFFF)}
		if be.Put(key, nil) != STmem {
			// Recycle to keep capacity available.
			be.FlushPage(key)
			be.Put(key, nil)
		}
	}
}

func BenchmarkBackendPutGetFlush(b *testing.B) {
	be := NewBackend(1024, NewMetaStore(testPage))
	pool := be.NewPool(1, Persistent)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := Key{Pool: pool, Object: 1, Index: PageIndex(i % 512)}
		be.Put(key, nil)
		be.Get(key, nil)
		be.FlushPage(key)
	}
}

// BenchmarkBackendSwapSweep times a frontswap-shaped life of a page: a
// sequential put sweep, then an exclusive get sweep, over 64 Ki keys — an
// index far larger than L2, where the put/get/flush benchmark above stays
// in L1. One op is one key's put and get. sequential numbers the keys as a
// swap device does; object-per-key gives each key an object of its own, so
// no two share a run and each put takes a leaf that its get frees.
func BenchmarkBackendSwapSweep(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		benchSwapSweep(b, func(pool PoolID, i int) Key { return Key{Pool: pool, Object: 1, Index: PageIndex(i)} })
	})
	b.Run("object-per-key", func(b *testing.B) {
		benchSwapSweep(b, func(pool PoolID, i int) Key { return Key{Pool: pool, Object: ObjectID(i)} })
	})
}

func benchSwapSweep(b *testing.B, key func(PoolID, int) Key) {
	const keys = 64 << 10
	be := NewBackend(keys, NewMetaStore(testPage))
	pool := be.NewExclusivePool(1)
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(keys, b.N-done)
		for i := range n {
			be.Put(key(pool, i), nil)
		}
		for i := range n {
			be.Get(key(pool, i), nil)
		}
		done += n
	}
}

func BenchmarkPageStoreBackends(b *testing.B) {
	page := fill(0x3C)
	for _, bc := range []struct {
		name string
		mk   func() PageStore
	}{
		{"meta", func() PageStore { return NewMetaStore(testPage) }},
		{"data", func() PageStore { return NewDataStore(testPage) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := bc.mk()
			dst := make([]byte, testPage)
			b.SetBytes(testPage)
			for i := 0; i < b.N; i++ {
				h, err := s.Save(page)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Load(h, dst); err != nil {
					b.Fatal(err)
				}
				if err := s.Drop(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
