package tmem

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"smartmem/internal/mem"
)

// fakeTier is an in-memory Tier holding up to cap pages. onPut, when set,
// runs between a put's acceptance and the page landing in the tier.
type fakeTier struct {
	cap   int
	pages map[Key]PoolKind
	onPut func()
}

func newFakeTier(capacity int) *fakeTier {
	return &fakeTier{cap: capacity, pages: make(map[Key]PoolKind)}
}

func (f *fakeTier) Name() string     { return "fake" }
func (f *fakeTier) Stats() TierStats { return TierStats{} }

func (f *fakeTier) Put(key Key, kind PoolKind, _ []byte) Status {
	if _, held := f.pages[key]; !held && len(f.pages) >= f.cap {
		return ETmem
	}
	if f.onPut != nil {
		f.onPut()
	}
	f.pages[key] = kind
	return STmem
}

func (f *fakeTier) Get(key Key, _ []byte) Status {
	kind, held := f.pages[key]
	if !held {
		return ETmem
	}
	if kind == Ephemeral {
		delete(f.pages, key)
	}
	return STmem
}

func (f *fakeTier) FlushPage(key Key) Status {
	if _, held := f.pages[key]; !held {
		return ETmem
	}
	delete(f.pages, key)
	return STmem
}

func (f *fakeTier) FlushObject(pool PoolID, object ObjectID) (mem.Pages, Status) {
	before := len(f.pages)
	maps.DeleteFunc(f.pages, func(k Key, _ PoolKind) bool { return k.Pool == pool && k.Object == object })
	if len(f.pages) == before {
		return 0, ETmem
	}
	return mem.Pages(before - len(f.pages)), STmem
}

func (f *fakeTier) DropPool(pool PoolID) {
	maps.DeleteFunc(f.pages, func(k Key, _ PoolKind) bool { return k.Pool == pool })
}

// modelTmem is the reference the real Backend is checked against: paper
// Algorithm 1 plus overflow into one lower tier, written as naively as
// possible — one map of pages, one LRU slice, no shards, no locks, every
// sweep a linear scan. A tier that never fails holds exactly the pages
// tracked in it, so the model keeps no tier of its own: where[key] == false
// is "the tier has it", and tierCap bounds how many keys may say so.
type modelTmem struct {
	free    mem.Pages
	tierCap int
	pools   map[PoolID]*modelPool
	used    map[VMID]mem.Pages
	target  map[VMID]mem.Pages
	where   map[Key]bool // true: held locally; false: tracked in the tier
	lru     []Key        // local ephemeral keys, oldest first
}

type modelPool struct {
	vm    VMID
	kind  PoolKind
	pages mem.Pages
}

func (m *modelTmem) tracked() map[Key]PoolKind {
	held := map[Key]PoolKind{}
	for k, local := range m.where {
		if !local {
			held[k] = m.pools[k.Pool].kind
		}
	}
	return held
}

func without(keys []Key, key Key) []Key {
	return slices.DeleteFunc(keys, func(k Key) bool { return k == key })
}

// drop forgets key, releasing its frame if it was held locally.
func (m *modelTmem) drop(key Key) {
	if m.where[key] {
		p := m.pools[key.Pool]
		p.pages--
		m.used[p.vm]--
		m.free++
		m.lru = without(m.lru, key)
	}
	delete(m.where, key)
}

// dropIf forgets every key match selects and returns how many there were.
func (m *modelTmem) dropIf(match func(Key) bool) (n mem.Pages) {
	for k := range m.where {
		if match(k) {
			m.drop(k)
			n++
		}
	}
	return n
}

func (m *modelTmem) put(key Key) Status {
	p := m.pools[key.Pool]
	if p == nil {
		return EInval
	}
	local, known := m.where[key]
	if local { // duplicate put: contents replaced, age refreshed
		if p.kind == Ephemeral {
			m.lru = append(without(m.lru, key), key)
		}
		return STmem
	}
	if m.used[p.vm] < m.target[p.vm] {
		for m.free == 0 && len(m.lru) > 0 {
			m.drop(m.lru[0]) // out of frames: the oldest ephemeral page goes
		}
		if m.free > 0 {
			m.free, m.used[p.vm], p.pages = m.free-1, m.used[p.vm]+1, p.pages+1
			m.where[key] = true // a tier copy, if any, is superseded
			if p.kind == Ephemeral {
				m.lru = append(m.lru, key)
			}
			return STmem
		}
	}
	// Over target or out of frames: overflow into the tier.
	if known || len(m.tracked()) < m.tierCap {
		m.where[key] = false
		return STmem
	}
	return ETmem
}

func (m *modelTmem) get(key Key) Status {
	p := m.pools[key.Pool]
	if p == nil {
		return EInval
	}
	if _, known := m.where[key]; !known {
		return ETmem
	}
	if p.kind == Ephemeral { // destructive, wherever the page sat
		m.drop(key)
	}
	return STmem
}

func (m *modelTmem) flushPage(key Key) Status {
	if m.pools[key.Pool] == nil {
		return EInval
	}
	if _, known := m.where[key]; !known {
		return ETmem
	}
	m.drop(key)
	return STmem
}

func (m *modelTmem) flushObject(pool PoolID, object ObjectID) (mem.Pages, Status) {
	if m.pools[pool] == nil {
		return 0, EInval
	}
	n := m.dropIf(func(k Key) bool { return k.Pool == pool && k.Object == object })
	if n == 0 {
		return 0, ETmem
	}
	return n, STmem
}

func (m *modelTmem) destroyPool(id PoolID) bool {
	if m.pools[id] == nil {
		return false
	}
	m.dropIf(func(k Key) bool { return k.Pool == id })
	delete(m.pools, id)
	return true
}

// TestBackendMatchesMapModel drives the real Backend and the map model with
// the same seeded op sequence and requires the same answers, the same
// observable state and a consistent index after every single op. The number
// of indexed keys is steered up and down across the sizes where one stripe's
// flat index changes shape — a table at its maximum load and the doubling
// past it (48, 96 and 192 keys), the first slab chunk filling up (256) — and
// then pushed against the node's 300 frames, where puts evict, overflow and
// fail. (Four stripes split the same keys, so each crosses 48 only.)
func TestBackendMatchesMapModel(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, tierCap := range []int{0, 40} {
			t.Run(fmt.Sprintf("shards-%d/tier-%d", shards, tierCap), func(t *testing.T) {
				runModelOps(t, shards, tierCap)
			})
		}
	}
}

func runModelOps(t *testing.T, shards, tierCap int) {
	const (
		total = mem.Pages(300)
		ops   = 2000
	)
	waypoints := []int{50, 46, 98, 94, 194, 190, 258, 254, 500, 500} // 500: more than fits

	b := NewBackendOpts(total, Options{Shards: shards, NewStore: func() PageStore { return NewMetaStore(testPage) }})
	m := &modelTmem{free: total, tierCap: tierCap, pools: map[PoolID]*modelPool{},
		used: map[VMID]mem.Pages{}, target: map[VMID]mem.Pages{1: Unlimited, 2: Unlimited}, where: map[Key]bool{}}
	tier := newFakeTier(tierCap)
	if tierCap > 0 {
		b.AttachTier(tier)
	}

	rng := rand.New(rand.NewSource(0x7E4D))
	var live []PoolID        // pools to draw keys from: VM 1's and VM 2's, one of each kind
	stale := PoolID(1 << 30) // the last destroyed pool, or one that never was
	newPool := func(vm VMID, kind PoolKind) PoolID {
		id := b.NewPool(vm, kind)
		m.pools[id] = &modelPool{vm: vm, kind: kind}
		return id
	}
	for _, vm := range []VMID{1, 2} {
		live = append(live, newPool(vm, Persistent), newPool(vm, Ephemeral))
	}
	randomKey := func() Key {
		return Key{Pool: live[rng.Intn(len(live))], Object: ObjectID(rng.Intn(8)), Index: PageIndex(rng.Intn(64))}
	}
	heldKey := func() Key {
		if len(m.where) == 0 {
			return randomKey()
		}
		return slices.SortedFunc(maps.Keys(m.where), func(a, b Key) int {
			return cmp.Or(cmp.Compare(a.Pool, b.Pool), cmp.Compare(a.Object, b.Object), cmp.Compare(a.Index, b.Index))
		})[rng.Intn(len(m.where))]
	}

	for i := 0; i < ops; i++ {
		grow := len(m.where) < waypoints[i*len(waypoints)/ops]
		var op string
		var got, want any
		put := func(k Key) { op, got, want = fmt.Sprint("Put ", k), b.Put(k, nil), m.put(k) }
		get := func(k Key) { op, got, want = fmt.Sprint("Get ", k), b.Get(k, nil), m.get(k) }
		flush := func(k Key) { op, got, want = fmt.Sprint("FlushPage ", k), b.FlushPage(k), m.flushPage(k) }
		flushObject := func(k Key) {
			op = fmt.Sprint("FlushObject ", k.Pool, "/", k.Object)
			n, st := b.FlushObject(k.Pool, k.Object)
			mn, mst := m.flushObject(k.Pool, k.Object)
			got, want = fmt.Sprint(n, st), fmt.Sprint(mn, mst)
		}
		destroy := func(k Key) {
			op, got, want = fmt.Sprint("DestroyPool ", k.Pool), b.DestroyPool(k.Pool) == nil, m.destroyPool(k.Pool)
		}

		switch r := rng.Intn(1000); {
		case r < 25:
			vm, target := VMID(1+rng.Intn(2)), Unlimited
			if rng.Intn(4) == 0 {
				target = mem.Pages(rng.Intn(int(total) / 2))
			}
			op = fmt.Sprint("SetTarget ", vm, " ", target)
			b.SetTarget(vm, target)
			m.target[vm] = target
		case r < 28:
			j := rng.Intn(len(live))
			p := m.pools[live[j]]
			destroy(Key{Pool: live[j]})
			stale, live[j] = live[j], newPool(p.vm, p.kind)
		case r < 34:
			flushObject(randomKey())
		case r < 40: // every operation on a pool that is gone
			k := randomKey()
			k.Pool = stale
			[]func(Key){put, get, flush, flushObject, destroy}[rng.Intn(5)](k)
		case grow && r < 800:
			put(randomKey())
		case grow && r < 880, !grow && r < 100:
			put(heldKey())
		case grow && r < 950, !grow && r < 300:
			get(heldKey())
		case grow, r < 850:
			flush(heldKey())
		case r < 930:
			put(randomKey())
		case r < 960:
			get(randomKey())
		default:
			flush(randomKey())
		}

		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("op %d %s: %s", i, op, fmt.Sprintf(format, args...))
		}
		if got != want {
			fail("= %v, model %v", got, want)
		}
		if err := b.CheckInvariants(); err != nil {
			fail("%v", err)
		}
		if got, want := b.FreePages(), m.free; got != want {
			fail("FreePages %d, model %d", got, want)
		}
		indexed := 0
		for _, sh := range b.shards {
			indexed += sh.live
		}
		if indexed != len(m.where) {
			fail("%d keys indexed, model %d", indexed, len(m.where))
		}
		for _, vm := range []VMID{1, 2} {
			if got, want := b.UsedBy(vm), m.used[vm]; got != want {
				fail("vm %d tmem_used %d, model %d", vm, got, want)
			}
		}
		for id := PoolID(0); id < b.nextPool; id++ {
			p, mp := b.pool(id), m.pools[id]
			if (p == nil) != (mp == nil) {
				fail("pool %d live=%v, model %v", id, p != nil, mp != nil)
			}
			if p != nil && p.Pages() != mp.pages {
				fail("pool %d holds %d pages, model %d", id, p.Pages(), mp.pages)
			}
		}
		if want := m.tracked(); !maps.Equal(tier.pages, want) {
			fail("tier holds %d pages, model tracks %d there, or different ones", len(tier.pages), len(want))
		}
	}
}

// TestOverflowPutIntoDyingPoolLeaksNothing: the pool is destroyed after the
// tier accepted an overflow put and before the backend records where the
// page went. The purge has already swept the shard, so recording it then
// would leave an index entry and a tier copy nothing ever removes.
func TestOverflowPutIntoDyingPoolLeaksNothing(t *testing.T) {
	for _, batch := range []bool{false, true} {
		b := NewBackend(8, NewMetaStore(testPage))
		tier := newFakeTier(8)
		b.AttachTier(tier)
		pool := b.NewPool(1, Persistent)
		b.SetTarget(1, 0) // every put overflows
		tier.onPut = func() {
			if err := b.DestroyPool(pool); err != nil {
				t.Errorf("DestroyPool: %v", err)
			}
		}
		key := Key{Pool: pool, Object: 1, Index: 1}
		if batch {
			b.PutBatch([]Key{key}, nil, make([]Status, 1))
		} else {
			b.Put(key, nil)
		}
		if n := b.shards[0].live; n != 0 {
			t.Errorf("batch=%v: %d entries indexed for a destroyed pool", batch, n)
		}
		if len(tier.pages) != 0 {
			t.Errorf("batch=%v: tier still holds %v of a destroyed pool", batch, tier.pages)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Errorf("batch=%v: %v", batch, err)
		}
	}
}
