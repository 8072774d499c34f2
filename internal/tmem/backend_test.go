package tmem

import (
	"bytes"
	"testing"
	"testing/quick"

	"smartmem/internal/mem"
)

const testPage = 4096

func newTestBackend(pages mem.Pages) *Backend {
	return NewBackend(pages, NewDataStore(testPage))
}

func fill(b byte) []byte {
	p := make([]byte, testPage)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestPutGetRoundTrip(t *testing.T) {
	b := newTestBackend(16)
	pool := b.NewPool(1, Persistent)
	key := Key{Pool: pool, Object: 7, Index: 3}

	if st := b.Put(key, fill(0xAB)); st != STmem {
		t.Fatalf("Put = %v, want S_TMEM", st)
	}
	dst := make([]byte, testPage)
	if st := b.Get(key, dst); st != STmem {
		t.Fatalf("Get = %v, want S_TMEM", st)
	}
	if !bytes.Equal(dst, fill(0xAB)) {
		t.Error("Get returned wrong page contents")
	}
	// Persistent get is non-destructive.
	if st := b.Get(key, dst); st != STmem {
		t.Errorf("second Get = %v, want S_TMEM (persistent pools keep pages)", st)
	}
	if b.UsedBy(1) != 1 {
		t.Errorf("UsedBy = %d, want 1", b.UsedBy(1))
	}
}

func TestGetMissAndUnknownPool(t *testing.T) {
	b := newTestBackend(16)
	pool := b.NewPool(1, Persistent)
	if st := b.Get(Key{Pool: pool, Object: 1, Index: 1}, nil); st != ETmem {
		t.Errorf("Get miss = %v, want E_TMEM", st)
	}
	if st := b.Get(Key{Pool: 99, Object: 1, Index: 1}, nil); st != EInval {
		t.Errorf("Get unknown pool = %v, want E_INVAL", st)
	}
	if st := b.Put(Key{Pool: 99}, nil); st != EInval {
		t.Errorf("Put unknown pool = %v, want E_INVAL", st)
	}
	if st := b.FlushPage(Key{Pool: 99}); st != EInval {
		t.Errorf("Flush unknown pool = %v, want E_INVAL", st)
	}
}

func TestFlushPageFreesCapacity(t *testing.T) {
	b := newTestBackend(4)
	pool := b.NewPool(1, Persistent)
	key := Key{Pool: pool, Object: 1, Index: 1}
	b.Put(key, nil)
	if b.FreePages() != 3 {
		t.Fatalf("free = %d, want 3", b.FreePages())
	}
	if st := b.FlushPage(key); st != STmem {
		t.Fatalf("Flush = %v", st)
	}
	if b.FreePages() != 4 {
		t.Errorf("free after flush = %d, want 4", b.FreePages())
	}
	if b.UsedBy(1) != 0 {
		t.Errorf("used after flush = %d, want 0", b.UsedBy(1))
	}
	if st := b.FlushPage(key); st != ETmem {
		t.Errorf("double flush = %v, want E_TMEM", st)
	}
	if st := b.Get(key, nil); st != ETmem {
		t.Errorf("Get after flush = %v, want E_TMEM", st)
	}
}

func TestFlushObject(t *testing.T) {
	b := newTestBackend(64)
	pool := b.NewPool(1, Persistent)
	for i := 0; i < 5; i++ {
		b.Put(Key{Pool: pool, Object: 10, Index: PageIndex(i)}, nil)
	}
	b.Put(Key{Pool: pool, Object: 11, Index: 0}, nil)

	n, st := b.FlushObject(pool, 10)
	if st != STmem || n != 5 {
		t.Fatalf("FlushObject = (%d, %v), want (5, S_TMEM)", n, st)
	}
	if b.UsedBy(1) != 1 {
		t.Errorf("used = %d, want 1 (object 11 survives)", b.UsedBy(1))
	}
	if _, st := b.FlushObject(pool, 10); st != ETmem {
		t.Errorf("second FlushObject = %v, want E_TMEM", st)
	}
	if _, st := b.FlushObject(99, 10); st != EInval {
		t.Errorf("FlushObject unknown pool = %v, want E_INVAL", st)
	}
}

// Algorithm 1 line 7: puts fail with E_TMEM when no free tmem remains.
func TestPutFailsWhenExhausted(t *testing.T) {
	b := newTestBackend(3)
	pool := b.NewPool(1, Persistent)
	for i := 0; i < 3; i++ {
		if st := b.Put(Key{Pool: pool, Object: 1, Index: PageIndex(i)}, nil); st != STmem {
			t.Fatalf("Put %d = %v", i, st)
		}
	}
	if st := b.Put(Key{Pool: pool, Object: 1, Index: 9}, nil); st != ETmem {
		t.Errorf("Put on full node = %v, want E_TMEM", st)
	}
	// Counters: 4 total, 3 succeeded.
	c, _ := b.Counts(1)
	if c.PutsTotal != 4 || c.PutsSucc != 3 {
		t.Errorf("counts = %+v, want total 4 succ 3", c)
	}
}

// Algorithm 1 line 5: puts fail once tmem_used reaches mm_target, even with
// free capacity available.
func TestPutEnforcesTarget(t *testing.T) {
	b := newTestBackend(100)
	pool := b.NewPool(1, Persistent)
	b.SetTarget(1, 2)
	ok := 0
	for i := 0; i < 5; i++ {
		if b.Put(Key{Pool: pool, Object: 1, Index: PageIndex(i)}, nil) == STmem {
			ok++
		}
	}
	if ok != 2 {
		t.Errorf("puts succeeded = %d, want 2 (target)", ok)
	}
	if b.FreePages() != 98 {
		t.Errorf("free = %d, want 98", b.FreePages())
	}
	// Raising the target lets the VM proceed.
	b.SetTarget(1, 4)
	if st := b.Put(Key{Pool: pool, Object: 1, Index: 9}, nil); st != STmem {
		t.Errorf("Put after target raise = %v, want S_TMEM", st)
	}
}

// Paper §III-B: a VM may hold more tmem than a newly lowered target; it
// cannot acquire more, but existing pages are not reclaimed.
func TestTargetLoweredBelowUsage(t *testing.T) {
	b := newTestBackend(100)
	pool := b.NewPool(1, Persistent)
	for i := 0; i < 10; i++ {
		b.Put(Key{Pool: pool, Object: 1, Index: PageIndex(i)}, nil)
	}
	b.SetTarget(1, 4)
	if got := b.UsedBy(1); got != 10 {
		t.Errorf("used after target cut = %d, want 10 (no forced reclaim)", got)
	}
	if st := b.Put(Key{Pool: pool, Object: 1, Index: 99}, nil); st != ETmem {
		t.Errorf("Put over lowered target = %v, want E_TMEM", st)
	}
	// Release pages below target; puts work again.
	for i := 0; i < 7; i++ {
		b.FlushPage(Key{Pool: pool, Object: 1, Index: PageIndex(i)})
	}
	if st := b.Put(Key{Pool: pool, Object: 1, Index: 99}, nil); st != STmem {
		t.Errorf("Put after releasing below target = %v, want S_TMEM", st)
	}
}

func TestDuplicatePutReplacesInPlace(t *testing.T) {
	b := newTestBackend(4)
	pool := b.NewPool(1, Persistent)
	key := Key{Pool: pool, Object: 2, Index: 2}
	b.Put(key, fill(0x11))
	if st := b.Put(key, fill(0x22)); st != STmem {
		t.Fatalf("duplicate Put = %v", st)
	}
	if b.UsedBy(1) != 1 {
		t.Errorf("used = %d, want 1 (duplicate put must not consume a frame)", b.UsedBy(1))
	}
	dst := make([]byte, testPage)
	b.Get(key, dst)
	if !bytes.Equal(dst, fill(0x22)) {
		t.Error("duplicate put did not replace contents")
	}
}

func TestEphemeralGetIsDestructive(t *testing.T) {
	b := newTestBackend(8)
	pool := b.NewPool(1, Ephemeral)
	key := Key{Pool: pool, Object: 1, Index: 1}
	b.Put(key, fill(0x55))
	dst := make([]byte, testPage)
	if st := b.Get(key, dst); st != STmem {
		t.Fatalf("Get = %v", st)
	}
	if st := b.Get(key, dst); st != ETmem {
		t.Errorf("second ephemeral Get = %v, want E_TMEM (destructive)", st)
	}
	if b.UsedBy(1) != 0 {
		t.Errorf("used = %d, want 0 after destructive get", b.UsedBy(1))
	}
}

// Ephemeral pages are evicted (oldest first) to satisfy new puts when the
// node is full — cleancache pages are expendable.
func TestEphemeralEvictionUnderPressure(t *testing.T) {
	b := newTestBackend(4)
	eph := b.NewPool(1, Ephemeral)
	per := b.NewPool(2, Persistent)
	for i := 0; i < 4; i++ {
		if st := b.Put(Key{Pool: eph, Object: 1, Index: PageIndex(i)}, nil); st != STmem {
			t.Fatalf("eph Put %d = %v", i, st)
		}
	}
	// Node is full; a persistent put must evict the oldest ephemeral page.
	if st := b.Put(Key{Pool: per, Object: 1, Index: 0}, nil); st != STmem {
		t.Fatalf("persistent Put on full node = %v, want S_TMEM via eviction", st)
	}
	if b.Contains(Key{Pool: eph, Object: 1, Index: 0}) {
		t.Error("oldest ephemeral page not evicted")
	}
	if !b.Contains(Key{Pool: eph, Object: 1, Index: 1}) {
		t.Error("wrong ephemeral page evicted")
	}
	c, _ := b.Counts(1)
	if c.EphEvicted != 1 {
		t.Errorf("EphEvicted = %d, want 1", c.EphEvicted)
	}
	// Once no ephemeral pages remain, puts fail again.
	for i := 1; i < 4; i++ {
		b.Put(Key{Pool: per, Object: 1, Index: PageIndex(i)}, nil)
	}
	if st := b.Put(Key{Pool: per, Object: 2, Index: 0}, nil); st != ETmem {
		t.Errorf("Put with nothing evictable = %v, want E_TMEM", st)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDestroyPoolReleasesEverything(t *testing.T) {
	b := newTestBackend(16)
	p1 := b.NewPool(1, Persistent)
	p2 := b.NewPool(1, Ephemeral)
	for i := 0; i < 4; i++ {
		b.Put(Key{Pool: p1, Object: 1, Index: PageIndex(i)}, nil)
		b.Put(Key{Pool: p2, Object: 1, Index: PageIndex(i)}, nil)
	}
	if err := b.DestroyPool(p2); err != nil {
		t.Fatal(err)
	}
	if b.UsedBy(1) != 4 {
		t.Errorf("used = %d, want 4", b.UsedBy(1))
	}
	if err := b.DestroyPool(p2); err == nil {
		t.Error("double destroy not rejected")
	}
	b.UnregisterVM(1)
	if b.FreePages() != 16 {
		t.Errorf("free after unregister = %d, want 16", b.FreePages())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSampleResetsIntervalCounters(t *testing.T) {
	b := newTestBackend(2)
	pool := b.NewPool(1, Persistent)
	b.Put(Key{Pool: pool, Object: 1, Index: 0}, nil)
	b.Put(Key{Pool: pool, Object: 1, Index: 1}, nil)
	b.Put(Key{Pool: pool, Object: 1, Index: 2}, nil) // fails: full

	s1 := b.Sample(1)
	v, ok := s1.Find(1)
	if !ok {
		t.Fatal("VM 1 missing from sample")
	}
	if v.PutsTotal != 3 || v.PutsSucc != 2 || v.FailedPuts() != 1 {
		t.Errorf("interval counters = %+v", v)
	}
	if v.TmemUsed != 2 || s1.FreeTmem != 0 || s1.TotalTmem != 2 {
		t.Errorf("capacity stats = %+v free=%d total=%d", v, s1.FreeTmem, s1.TotalTmem)
	}
	if v.CumulPutsFailed != 1 {
		t.Errorf("cumul failed = %d, want 1", v.CumulPutsFailed)
	}

	// Second sample: interval counters reset, cumulative retained.
	s2 := b.Sample(2)
	v2, _ := s2.Find(1)
	if v2.PutsTotal != 0 || v2.PutsSucc != 0 {
		t.Errorf("counters not reset: %+v", v2)
	}
	if v2.CumulPutsFailed != 1 {
		t.Errorf("cumulative failed lost: %d", v2.CumulPutsFailed)
	}
	if s2.IntervalSeq != 2 || s1.VMCount() != 1 {
		t.Errorf("seq/vmcount wrong: %+v", s2)
	}
}

func TestSampleOrdersVMsByID(t *testing.T) {
	b := newTestBackend(8)
	for _, vm := range []VMID{3, 1, 2} {
		b.RegisterVM(vm)
	}
	s := b.Sample(1)
	if s.VMCount() != 3 {
		t.Fatalf("vm count = %d", s.VMCount())
	}
	for i, want := range []VMID{1, 2, 3} {
		if s.VMs[i].ID != want {
			t.Errorf("VMs[%d].ID = %d, want %d", i, s.VMs[i].ID, want)
		}
	}
	if _, ok := s.Find(99); ok {
		t.Error("Find(99) succeeded for unregistered VM")
	}
}

func TestApplyTargetsAndDefaults(t *testing.T) {
	b := newTestBackend(100)
	b.RegisterVM(1)
	if b.Target(1) != Unlimited {
		t.Errorf("fresh VM target = %d, want Unlimited (greedy default)", b.Target(1))
	}
	b.ApplyTargets([]TargetUpdate{{ID: 1, MMTarget: 10}, {ID: 2, MMTarget: 20}})
	if b.Target(1) != 10 || b.Target(2) != 20 {
		t.Errorf("targets = %d, %d", b.Target(1), b.Target(2))
	}
	b.SetTarget(1, -5)
	if b.Target(1) != 0 {
		t.Errorf("negative target clamped to %d, want 0", b.Target(1))
	}
	if b.Target(99) != 0 {
		t.Errorf("unknown VM target = %d, want 0", b.Target(99))
	}
	vms := b.VMs()
	if len(vms) != 2 || vms[0] != 1 || vms[1] != 2 {
		t.Errorf("VMs() = %v", vms)
	}
}

func TestStatusAndKindStrings(t *testing.T) {
	if STmem.String() != "S_TMEM" || ETmem.String() != "E_TMEM" || EInval.String() != "E_INVAL" {
		t.Error("status strings wrong")
	}
	if Status(7).String() == "" || PoolKind(9).String() == "" {
		t.Error("unknown enum strings empty")
	}
	if Persistent.String() != "persistent" || Ephemeral.String() != "ephemeral" {
		t.Error("kind strings wrong")
	}
	k := Key{Pool: 1, Object: 2, Index: 3}
	if k.String() != "tmem:1/2/3" {
		t.Errorf("key string = %q", k.String())
	}
}

func TestKeyWireRoundTrip(t *testing.T) {
	f := func(pool int32, obj uint64, idx uint32) bool {
		k := Key{Pool: PoolID(pool), Object: ObjectID(obj), Index: PageIndex(idx)}
		got, err := KeyFromWire(k.AppendWire(nil))
		return err == nil && got == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := KeyFromWire([]byte{1, 2}); err == nil {
		t.Error("short key decode did not fail")
	}
}

func TestVMStatFailedPuts(t *testing.T) {
	v := VMStat{PutsTotal: 10, PutsSucc: 4}
	if v.FailedPuts() != 6 {
		t.Errorf("FailedPuts = %d, want 6", v.FailedPuts())
	}
	v = VMStat{PutsTotal: 3, PutsSucc: 5} // defensive: corrupt input
	if v.FailedPuts() != 0 {
		t.Errorf("FailedPuts on corrupt input = %d, want 0", v.FailedPuts())
	}
}

// Property: arbitrary operation sequences never break capacity accounting.
func TestBackendInvariantProperty(t *testing.T) {
	f := func(ops []byte) bool {
		b := NewBackend(32, NewMetaStore(testPage))
		pools := []PoolID{
			b.NewPool(1, Persistent),
			b.NewPool(2, Persistent),
			b.NewPool(1, Ephemeral),
		}
		for i, op := range ops {
			key := Key{
				Pool:   pools[int(op)%len(pools)],
				Object: ObjectID(op % 4),
				Index:  PageIndex(op % 16),
			}
			switch (int(op) + i) % 5 {
			case 0, 1:
				b.Put(key, nil)
			case 2:
				b.Get(key, nil)
			case 3:
				b.FlushPage(key)
			case 4:
				b.FlushObject(key.Pool, key.Object)
			}
			if b.CheckInvariants() != nil {
				return false
			}
		}
		// Total used never exceeds capacity.
		return b.FreePages() >= 0 && b.FreePages() <= 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: what you put is exactly what you get, for every store backend.
func TestPutGetDataIntegrityProperty(t *testing.T) {
	stores := map[string]func() PageStore{
		"data": func() PageStore { return NewDataStore(testPage) },
	}
	for name, mk := range stores {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			f := func(payload []byte, obj uint64, idx uint32) bool {
				if len(payload) > testPage {
					payload = payload[:testPage]
				}
				b := NewBackend(8, mk())
				pool := b.NewPool(1, Persistent)
				key := Key{Pool: pool, Object: ObjectID(obj), Index: PageIndex(idx)}
				if b.Put(key, payload) != STmem {
					return false
				}
				dst := make([]byte, testPage)
				if b.Get(key, dst) != STmem {
					return false
				}
				want := make([]byte, testPage)
				copy(want, payload)
				return bytes.Equal(dst, want)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Error(err)
			}
		})
	}
}
