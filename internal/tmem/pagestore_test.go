package tmem

import (
	"bytes"
	"testing"

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

func TestDataStoreBasics(t *testing.T)     { testStoreBasics(t, NewDataStore(testPage)) }
func TestMetaStoreBasics(t *testing.T)     { testStoreBasics(t, NewMetaStore(testPage)) }
func TestCompressStoreBasics(t *testing.T) { testStoreBasics(t, NewCompressStore(testPage)) }

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

func TestCompressStoreRoundTripAndSavings(t *testing.T) {
	s := NewCompressStore(testPage)
	// Highly compressible page.
	h, err := s.Save(fill(0x00))
	if err != nil {
		t.Fatal(err)
	}
	if s.Footprint() >= int64(testPage) {
		t.Errorf("compressible page footprint = %d, want < %d", s.Footprint(), testPage)
	}
	if s.BytesSaved() <= 0 {
		t.Error("no savings recorded for compressible page")
	}
	dst := make([]byte, testPage)
	if err := s.Load(h, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, make([]byte, testPage)) {
		t.Error("decompressed page differs")
	}
	if err := s.Drop(h); err != nil {
		t.Fatal(err)
	}
	if s.BytesSaved() != 0 {
		t.Errorf("savings after drop = %d, want 0", s.BytesSaved())
	}
}

func TestCompressStoreIncompressibleFallback(t *testing.T) {
	s := NewCompressStore(testPage)
	// Pseudo-random page: zlib cannot shrink it; store must fall back raw.
	page := make([]byte, testPage)
	x := uint64(0x123456789)
	for i := range page {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		page[i] = byte(x)
	}
	h, err := s.Save(page)
	if err != nil {
		t.Fatal(err)
	}
	if s.Footprint() != int64(testPage) {
		t.Errorf("incompressible footprint = %d, want %d (raw fallback)", s.Footprint(), testPage)
	}
	dst := make([]byte, testPage)
	if err := s.Load(h, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, page) {
		t.Error("raw-fallback page differs")
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

func TestStoreRejectsBadPageSize(t *testing.T) {
	for _, mk := range []func(){
		func() { NewDataStore(0) },
		func() { NewMetaStore(-1) },
		func() { NewCompressStore(0) },
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

func BenchmarkPageStoreBackends(b *testing.B) {
	page := fill(0x3C)
	for _, bc := range []struct {
		name string
		mk   func() PageStore
	}{
		{"meta", func() PageStore { return NewMetaStore(testPage) }},
		{"data", func() PageStore { return NewDataStore(testPage) }},
		{"compress", func() PageStore { return NewCompressStore(testPage) }},
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
