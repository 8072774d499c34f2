package tmem

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"smartmem/internal/mem"
)

func newTestCompressedTier(capacity mem.Bytes) *CompressedTier {
	return NewCompressedTier(CompressedTierConfig{
		PageSize:      testPage,
		CapacityBytes: capacity,
	})
}

func TestCompressedTierRoundTrip(t *testing.T) {
	ct := newTestCompressedTier(mem.MiB)
	key := Key{Pool: 1, Object: 2, Index: 3}
	page := fill(7)

	if st := ct.Put(key, Persistent, page); st != STmem {
		t.Fatalf("Put = %v", st)
	}
	dst := make([]byte, testPage)
	if st := ct.Get(key, dst); st != STmem {
		t.Fatalf("Get = %v", st)
	}
	if !bytes.Equal(dst, page) {
		t.Fatal("page contents corrupted through compress/decompress")
	}
	// Persistent gets are non-destructive.
	if st := ct.Get(key, dst); st != STmem {
		t.Fatalf("second Get = %v", st)
	}
	if st := ct.FlushPage(key); st != STmem {
		t.Fatalf("FlushPage = %v", st)
	}
	if st := ct.Get(key, dst); st != ETmem {
		t.Fatalf("Get after flush = %v, want E_TMEM", st)
	}

	s := ct.CompressedStats()
	if s.PagesStored != 0 || s.UniqueBlobs != 0 || s.StoredBytes != 0 || s.RawBytes != 0 {
		t.Errorf("accounting not empty after flush: %+v", s)
	}
	if s.Puts != 1 || s.PutsOK != 1 || s.GetsHit != 2 {
		t.Errorf("counters = %+v", s)
	}
}

func TestCompressedTierEphemeralGetIsDestructive(t *testing.T) {
	ct := newTestCompressedTier(mem.MiB)
	key := Key{Pool: 1, Object: 1, Index: 1}
	if st := ct.Put(key, Ephemeral, fill(3)); st != STmem {
		t.Fatal(st)
	}
	dst := make([]byte, testPage)
	if st := ct.Get(key, dst); st != STmem {
		t.Fatal(st)
	}
	if st := ct.Get(key, dst); st != ETmem {
		t.Fatalf("second ephemeral get = %v, want E_TMEM", st)
	}
	if s := ct.CompressedStats(); s.PagesStored != 0 || s.StoredBytes != 0 {
		t.Errorf("destructive get left accounting: %+v", s)
	}
}

func TestCompressedTierDedup(t *testing.T) {
	ct := newTestCompressedTier(mem.MiB)
	page := fill(9)
	// Identical contents under 8 distinct keys (different pools = different
	// VMs): one refcounted blob, one slab charge.
	for i := 0; i < 8; i++ {
		key := Key{Pool: PoolID(i), Object: 1, Index: 1}
		if st := ct.Put(key, Persistent, page); st != STmem {
			t.Fatal(st)
		}
	}
	s := ct.CompressedStats()
	if s.UniqueBlobs != 1 || s.PagesStored != 8 {
		t.Fatalf("blobs=%d pages=%d, want 1/8", s.UniqueBlobs, s.PagesStored)
	}
	if s.DedupHits != 7 {
		t.Errorf("dedup hits = %d, want 7", s.DedupHits)
	}
	if s.RawBytes != 8*testPage {
		t.Errorf("raw bytes = %d, want %d", s.RawBytes, 8*testPage)
	}
	if got := s.Ratio(); got < 2 {
		t.Errorf("ratio = %.1f, want >= 2 on deduped fill pages", got)
	}

	// Dropping 7 of 8 references keeps the blob; the last drop frees it.
	for i := 0; i < 7; i++ {
		if st := ct.FlushPage(Key{Pool: PoolID(i), Object: 1, Index: 1}); st != STmem {
			t.Fatal(st)
		}
	}
	if s := ct.CompressedStats(); s.UniqueBlobs != 1 {
		t.Fatalf("blob freed while still referenced: %+v", s)
	}
	dst := make([]byte, testPage)
	if st := ct.Get(Key{Pool: 7, Object: 1, Index: 1}, dst); st != STmem || !bytes.Equal(dst, page) {
		t.Fatal("surviving reference unreadable")
	}
	ct.DropPool(7)
	if s := ct.CompressedStats(); s.UniqueBlobs != 0 || s.StoredBytes != 0 {
		t.Errorf("accounting not empty after last deref: %+v", s)
	}
}

func TestCompressedTierReplacePut(t *testing.T) {
	ct := newTestCompressedTier(mem.MiB)
	key := Key{Pool: 1, Object: 1, Index: 1}
	if st := ct.Put(key, Persistent, fill(1)); st != STmem {
		t.Fatal(st)
	}
	if st := ct.Put(key, Persistent, fill(2)); st != STmem {
		t.Fatal(st)
	}
	dst := make([]byte, testPage)
	if st := ct.Get(key, dst); st != STmem || !bytes.Equal(dst, fill(2)) {
		t.Fatal("replacement put did not supersede")
	}
	if s := ct.CompressedStats(); s.PagesStored != 1 || s.UniqueBlobs != 1 {
		t.Errorf("replace leaked: %+v", s)
	}
}

func TestCompressedTierCapacityRejection(t *testing.T) {
	// Incompressible pages charge a full 4 KiB class (+ framing → 8 KiB
	// class): a 32 KiB arena fills after a handful of distinct noise pages.
	ct := newTestCompressedTier(32 * mem.KiB)
	pages := codecTestPages(testPage)
	noise := pages["noise"]
	accepted, rejected := 0, 0
	for i := 0; i < 16; i++ {
		p := append([]byte(nil), noise...)
		p[0] = byte(i) // distinct contents: dedup cannot help
		key := Key{Pool: 1, Object: 1, Index: PageIndex(i)}
		if st := ct.Put(key, Persistent, p); st == STmem {
			accepted++
		} else {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no puts rejected on a full arena")
	}
	s := ct.CompressedStats()
	if s.RejectedFull == 0 {
		t.Error("RejectedFull not counted")
	}
	if s.StoredBytes > 32*mem.KiB {
		t.Errorf("stored %d bytes > %d capacity", s.StoredBytes, 32*mem.KiB)
	}
	// Everything accepted stays readable.
	dst := make([]byte, testPage)
	hits := 0
	for i := 0; i < 16; i++ {
		if ct.Get(Key{Pool: 1, Object: 1, Index: PageIndex(i)}, dst) == STmem {
			hits++
		}
	}
	if hits != accepted {
		t.Errorf("hits = %d, accepted = %d", hits, accepted)
	}
}

func TestCompressedTierNilDataIsZeroPage(t *testing.T) {
	// The simulator's meta stores pass nil page data; the tier must treat
	// that as the all-zero page without invoking the codec, and all nil
	// puts dedup to the one zero blob.
	ct := newTestCompressedTier(mem.MiB)
	for i := 0; i < 10; i++ {
		if st := ct.Put(Key{Pool: 1, Object: 1, Index: PageIndex(i)}, Persistent, nil); st != STmem {
			t.Fatal(st)
		}
	}
	s := ct.CompressedStats()
	if s.UniqueBlobs != 1 {
		t.Errorf("unique blobs = %d, want 1 (zero page)", s.UniqueBlobs)
	}
	if s.CompressNs != 0 {
		t.Errorf("nil puts touched the codec: %d ns", s.CompressNs)
	}
	dst := fill(0xAA)
	if st := ct.Get(Key{Pool: 1, Object: 1, Index: 0}, dst); st != STmem {
		t.Fatal(st)
	}
	if !bytes.Equal(dst, make([]byte, testPage)) {
		t.Error("zero-page get did not zero the destination")
	}
	if s := ct.CompressedStats(); s.DecompressNs != 0 {
		t.Errorf("zero-page get touched the codec: %d ns", s.DecompressNs)
	}
}

func TestCompressedTierBatch(t *testing.T) {
	ct := newTestCompressedTier(mem.MiB)
	const n = 16
	keys := make([]Key, n)
	kinds := make([]PoolKind, n)
	datas := make([][]byte, n)
	sts := make([]Status, n)
	for i := range keys {
		keys[i] = Key{Pool: 1, Object: 1, Index: PageIndex(i)}
		kinds[i] = Persistent
		datas[i] = fill(byte(i % 4)) // 4 distinct contents across 16 keys
	}
	ct.PutBatch(keys, kinds, datas, sts)
	for i, st := range sts {
		if st != STmem {
			t.Fatalf("PutBatch[%d] = %v", i, st)
		}
	}
	if s := ct.CompressedStats(); s.UniqueBlobs != 4 || s.DedupHits != 12 {
		t.Errorf("batch dedup: %+v", s)
	}
	dsts := make([][]byte, n)
	for i := range dsts {
		dsts[i] = make([]byte, testPage)
	}
	ct.GetBatch(keys, dsts, sts)
	for i, st := range sts {
		if st != STmem {
			t.Fatalf("GetBatch[%d] = %v", i, st)
		}
		if !bytes.Equal(dsts[i], datas[i]) {
			t.Fatalf("GetBatch[%d] contents mismatch", i)
		}
	}
}

func TestCompressedTierFlushObjectAndDropPool(t *testing.T) {
	ct := newTestCompressedTier(mem.MiB)
	for obj := 0; obj < 3; obj++ {
		for i := 0; i < 4; i++ {
			key := Key{Pool: 1, Object: ObjectID(obj), Index: PageIndex(i)}
			if st := ct.Put(key, Persistent, fill(byte(obj))); st != STmem {
				t.Fatal(st)
			}
		}
	}
	n, st := ct.FlushObject(1, 0)
	if st != STmem || n != 4 {
		t.Fatalf("FlushObject = %d, %v, want 4 pages", n, st)
	}
	if _, st := ct.FlushObject(1, 0); st != ETmem {
		t.Error("second FlushObject should miss")
	}
	ct.DropPool(1)
	if s := ct.CompressedStats(); s.PagesStored != 0 || s.UniqueBlobs != 0 {
		t.Errorf("DropPool left pages: %+v", s)
	}
}

// faultyCodec wraps the LZ codec and, once armed, fails every decode — the
// stand-in for a corrupted slab.
type faultyCodec struct {
	Codec
	failDecode bool
}

func (f *faultyCodec) Decode(dst, src []byte) (int, error) {
	if f.failDecode {
		return 0, errors.New("injected corruption")
	}
	return f.Codec.Decode(dst, src)
}

// TestCompressedTierDecodeErrorFallsThrough pins the satellite-2 contract:
// a blob that fails to decode must read as a clean tier miss — the backend
// drops its tracking and the guest falls through to the next tier / its
// disk — never a panic or a garbage page.
func TestCompressedTierDecodeErrorFallsThrough(t *testing.T) {
	fc := &faultyCodec{Codec: NewLZCodec()}
	local := NewBackend(1, NewDataStore(testPage))
	local.AttachTier(NewCompressedTier(CompressedTierConfig{
		PageSize:      testPage,
		CapacityBytes: mem.MiB,
		Codec:         fc,
	}))
	pool := local.NewPool(1, Persistent)

	// Fill the single local frame, then overflow one page into the tier.
	if st := local.Put(Key{Pool: pool, Object: 0, Index: 0}, fill(1)); st != STmem {
		t.Fatal(st)
	}
	key := Key{Pool: pool, Object: 0, Index: 1}
	if st := local.Put(key, fill(2)); st != STmem {
		t.Fatalf("overflow put = %v", st)
	}

	fc.failDecode = true
	dst := fill(0xEE)
	if st := local.Get(key, dst); st != ETmem {
		t.Fatalf("Get over corrupted blob = %v, want E_TMEM", st)
	}
	if bytes.Equal(dst, fill(2)) {
		t.Fatal("corrupted blob returned page contents")
	}
	// The miss is permanent (tracking dropped), even after the codec heals.
	fc.failDecode = false
	if st := local.Get(key, dst); st != ETmem {
		t.Fatalf("Get after corruption = %v, want E_TMEM", st)
	}
	ts := local.Tiers()[0].(*CompressedTier).CompressedStats()
	if ts.DecodeErrors != 1 {
		t.Errorf("decode errors = %d, want 1", ts.DecodeErrors)
	}
	if ts.PagesStored != 0 {
		t.Errorf("corrupted entry not dropped: %+v", ts)
	}
	if err := local.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestOversizePageIsInvalid: a page longer than the page size is malformed
// wherever it would land. Put and PutBatch answer E_INVAL before the local
// store or a tier sees it, whether the VM has room locally or its puts
// overflow; the compressed tier would stage it into one page and drop the
// tail.
func TestOversizePageIsInvalid(t *testing.T) {
	local := NewBackend(4, NewDataStore(testPage))
	ct := newTestCompressedTier(mem.MiB)
	local.AttachTier(ct)
	pool := local.NewPool(1, Persistent)
	page := bytes.Repeat([]byte{7}, testPage+100)
	key := Key{Pool: pool, Object: 1, Index: 1}
	for _, target := range []mem.Pages{Unlimited, 0} {
		local.SetTarget(1, target)
		if st := local.Put(key, page); st != EInval {
			t.Errorf("target %d: Put of a %d-byte page = %v, want E_INVAL", target, len(page), st)
		}
		sts := make([]Status, 1)
		local.PutBatch([]Key{key}, [][]byte{page}, sts)
		if sts[0] != EInval {
			t.Errorf("target %d: PutBatch of a %d-byte page = %v, want E_INVAL", target, len(page), sts[0])
		}
	}
	if s := ct.CompressedStats(); s.Puts != 0 {
		t.Errorf("the tier saw %d oversize puts", s.Puts)
	}
	if st := local.Get(key, make([]byte, testPage)); st != ETmem {
		t.Errorf("Get after refused puts = %v, want E_TMEM", st)
	}
	if err := local.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCompressedTierEffectiveCapacity(t *testing.T) {
	ct := newTestCompressedTier(mem.MiB)
	capPages := mem.Pages(mem.MiB / testPage)
	if got := ct.EffectiveExtraPages(); got != capPages {
		t.Fatalf("empty tier extra = %d, want ratio-1 estimate %d", got, capPages)
	}
	// Store compressible pages: the observed per-page cost drops well below
	// pageSize and the projection must exceed the raw page count.
	for i := 0; i < 32; i++ {
		key := Key{Pool: 1, Object: 1, Index: PageIndex(i)}
		if st := ct.Put(key, Persistent, fill(byte(i))); st != STmem {
			t.Fatal(st)
		}
	}
	extra := ct.EffectiveExtraPages()
	if extra <= capPages {
		t.Errorf("extra = %d, want > %d after compressible pages", extra, capPages)
	}
	maxPages := compressedRatioCap * capPages
	if extra > maxPages {
		t.Errorf("extra = %d exceeds the ratio cap %d", extra, maxPages)
	}

	// Sample folds the amplified capacity into MemStats, and the policies'
	// EffectiveTotal reads it.
	local := NewBackend(64, NewDataStore(testPage))
	local.AttachTier(ct)
	local.NewPool(1, Persistent)
	ms := local.Sample(1)
	if ms.EffectiveTmem != 64+extra {
		t.Errorf("EffectiveTmem = %d, want %d", ms.EffectiveTmem, 64+extra)
	}
	if ms.EffectiveTotal() != 64+extra {
		t.Errorf("EffectiveTotal = %d, want %d", ms.EffectiveTotal(), 64+extra)
	}
	// No amplifier → EffectiveTmem stays zero and EffectiveTotal falls back
	// to TotalTmem (the compression-off goldens depend on this).
	plain := NewBackend(64, NewDataStore(testPage))
	if ms := plain.Sample(1); ms.EffectiveTmem != 0 || ms.EffectiveTotal() != 64 {
		t.Errorf("plain backend: EffectiveTmem=%d EffectiveTotal=%d", ms.EffectiveTmem, ms.EffectiveTotal())
	}
}

// TestCompressedTierWarmCycleZeroAllocs pins the acceptance criterion: the
// warm compress→hit→decompress cycle allocates nothing — slab buffers,
// blob/entry structs and codec scratch all recycle through the tier's free
// lists.
func TestCompressedTierWarmCycleZeroAllocs(t *testing.T) {
	ct := newTestCompressedTier(mem.MiB)
	page := codecTestPages(testPage)["text"]
	dst := make([]byte, testPage)
	key := Key{Pool: 1, Object: 1, Index: 1}

	cycle := func() {
		if st := ct.Put(key, Persistent, page); st != STmem {
			t.Fatal(st)
		}
		if st := ct.Get(key, dst); st != STmem {
			t.Fatal(st)
		}
		if st := ct.FlushPage(key); st != STmem {
			t.Fatal(st)
		}
	}
	for i := 0; i < 16; i++ {
		cycle() // warm the free lists and scratch
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("warm compress→hit→decompress cycle allocates %.1f/op, want 0", avg)
	}

	// The ephemeral destructive path must be allocation-free too.
	eph := func() {
		if st := ct.Put(key, Ephemeral, page); st != STmem {
			t.Fatal(st)
		}
		if st := ct.Get(key, dst); st != STmem {
			t.Fatal(st)
		}
	}
	for i := 0; i < 16; i++ {
		eph()
	}
	if avg := testing.AllocsPerRun(200, eph); avg != 0 {
		t.Errorf("warm ephemeral put→get cycle allocates %.1f/op, want 0", avg)
	}
}

// TestCompressedTierConcurrent exercises the tier under the sharded
// backend's concurrent overflow traffic (run under -race in CI).
func TestCompressedTierConcurrent(t *testing.T) {
	local := newShardedBackend(64, 8)
	local.AttachTier(NewCompressedTier(CompressedTierConfig{
		PageSize:      testPage,
		CapacityBytes: 4 * mem.MiB,
	}))

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		pool := local.NewPool(VMID(w), Persistent)
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, testPage)
			for i := 0; i < 400; i++ {
				key := Key{Pool: pool, Object: ObjectID(i % 5), Index: PageIndex(i)}
				local.Put(key, fill(byte(i%7)))
				local.Get(key, dst)
				if i%3 == 0 {
					local.FlushPage(key)
				}
			}
			local.FlushObject(pool, 0)
		}()
	}
	wg.Wait()
	if err := local.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// BenchmarkCompressedTier measures the tier's hot cycles on the text-mix
// page: ns/op, allocs/op and the achieved compression ratio land in
// BENCH.json via make bench-json.
func BenchmarkCompressedTier(b *testing.B) {
	page := codecTestPages(testPage)["text"]

	b.Run("compress", func(b *testing.B) {
		ct := newTestCompressedTier(mem.MiB)
		key := Key{Pool: 1, Object: 1, Index: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ct.Put(key, Persistent, page)
			ct.FlushPage(key)
		}
		b.StopTimer()
		ct.Put(key, Persistent, page)
		b.ReportMetric(ct.CompressedStats().Ratio(), "ratio")
	})

	b.Run("roundtrip", func(b *testing.B) {
		ct := newTestCompressedTier(mem.MiB)
		key := Key{Pool: 1, Object: 1, Index: 1}
		dst := make([]byte, testPage)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ct.Put(key, Persistent, page)
			ct.Get(key, dst)
			ct.FlushPage(key)
		}
	})

	b.Run("dedup", func(b *testing.B) {
		ct := newTestCompressedTier(mem.MiB)
		// Seed one blob; every benchmarked put dedups against it.
		ct.Put(Key{Pool: 99, Object: 1, Index: 1}, Persistent, page)
		key := Key{Pool: 1, Object: 1, Index: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ct.Put(key, Persistent, page)
			ct.FlushPage(key)
		}
		b.StopTimer()
		s := ct.CompressedStats()
		b.ReportMetric(float64(s.DedupHits)/float64(s.Puts), "dedup-rate")
	})

	serve := serveTestPages(7, 8)

	b.Run("full", func(b *testing.B) {
		// Eight incompressible pages charge 8 KiB each: the arena is exactly
		// full, and every benchmarked put of a page no blob holds is refused.
		ct := newTestCompressedTier(64 * mem.KiB)
		for i := 0; i < 8; i++ {
			p := append([]byte(nil), codecTestPages(testPage)["noise"]...)
			p[0] = byte(i)
			if st := ct.Put(Key{Pool: 99, Object: 1, Index: PageIndex(i)}, Persistent, p); st != STmem {
				b.Fatalf("filling put %d = %v", i, st)
			}
		}
		if s := ct.CompressedStats(); s.StoredBytes != ct.CapacityBytes() {
			b.Fatalf("arena holds %d of %d bytes", s.StoredBytes, ct.CapacityBytes())
		}
		key := Key{Pool: 1, Object: 1, Index: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st := ct.Put(key, Persistent, page); st != ETmem {
				b.Fatalf("put on a full arena = %v", st)
			}
		}
	})

	b.Run("mix", func(b *testing.B) {
		// The serve workloads' classes in their proportions: half text, a
		// quarter dup (held by other keys, so those puts dedup) and a
		// quarter random.
		ct := newTestCompressedTier(mem.MiB)
		var mix [][]byte
		for i := 0; i < 4; i++ {
			ct.Put(Key{Pool: 99, Object: 1, Index: PageIndex(i)}, Persistent, serve["dup"][i])
			mix = append(mix, serve["text"][2*i], serve["dup"][i], serve["text"][2*i+1], serve["random"][i])
		}
		key := Key{Pool: 1, Object: 1, Index: 1}
		cycle := func(i int) {
			ct.Put(key, Persistent, mix[i%len(mix)])
			ct.FlushPage(key)
		}
		for i := range mix {
			cycle(i) // warm the free lists and scratch
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(i)
		}
	})
}
