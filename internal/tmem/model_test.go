package tmem

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"smartmem/internal/mem"
)

// fakeTier is an in-memory Tier holding up to cap pages. onPut, when set,
// runs between a put's acceptance and the page landing in the tier. With
// refuseReplace set it turns away a put over a page it holds and drops its
// copy — as CompressedTier does with a replacement that does not fit —
// while a fresh page still lands if there is room.
type fakeTier struct {
	cap           int
	pages         map[Key]PoolKind
	onPut         func()
	refuseReplace bool
}

func newFakeTier(capacity int) *fakeTier {
	return &fakeTier{cap: capacity, pages: make(map[Key]PoolKind)}
}

func (f *fakeTier) Name() string     { return "fake" }
func (f *fakeTier) Stats() TierStats { return TierStats{} }

func (f *fakeTier) Put(key Key, kind PoolKind, _ []byte) Status {
	if _, held := f.pages[key]; held && f.refuseReplace || !held && len(f.pages) >= f.cap {
		delete(f.pages, key)
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

func (f *fakeTier) PutBatch(keys []Key, kinds []PoolKind, _ [][]byte, sts []Status) {
	for i, k := range keys {
		sts[i] = f.Put(k, kinds[i], nil)
	}
}

func (f *fakeTier) GetBatch(keys []Key, _ [][]byte, sts []Status) {
	for i, k := range keys {
		sts[i] = f.Get(k, nil)
	}
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

// modelLocal is where[key] for a page held in the local store.
const modelLocal = -1

// modelTmem is the reference the real Backend is checked against: paper
// Algorithm 1 plus overflow into a stack of lower tiers, written as naively
// as possible — one map of pages, one LRU slice, no locks, every sweep a
// linear scan. A fake tier holds exactly the pages tracked in it, so the
// model keeps no tier of its own: where[key] == i is "tier i has it", and
// tierCaps[i] bounds how many keys may say so.
type modelTmem struct {
	free     mem.Pages
	tierCaps []int
	refusing []bool // tier i refuses to replace a page it holds
	pools    map[PoolID]*modelPool
	used     map[VMID]mem.Pages
	target   map[VMID]mem.Pages
	where    map[Key]int // modelLocal, or the tier the key is tracked in
	lru      []Key       // local ephemeral keys, oldest first
	stripe   func(Key) int
}

type modelPool struct {
	vm        VMID
	kind      PoolKind
	exclusive bool // a get is a get and a flush
	pages     mem.Pages
}

// tracked returns the keys tier ti holds, with their pools' kinds.
func (m *modelTmem) tracked(ti int) map[Key]PoolKind {
	held := map[Key]PoolKind{}
	for k, w := range m.where {
		if w == ti {
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
	if w, known := m.where[key]; known && w == modelLocal {
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

// tryPut is one local put attempt. With evict false, a put that lacks only
// a free frame reports retry instead of evicting ephemeral pages for one.
func (m *modelTmem) tryPut(key Key, evict bool) (st Status, retry bool) {
	p := m.pools[key.Pool]
	if p == nil {
		return EInval, false
	}
	if w, known := m.where[key]; known && w == modelLocal { // duplicate put
		if p.kind == Ephemeral {
			m.lru = append(without(m.lru, key), key)
		}
		return STmem, false
	}
	if m.used[p.vm] >= m.target[p.vm] {
		return ETmem, false
	}
	for evict && m.free == 0 && len(m.lru) > 0 {
		m.drop(m.lru[0]) // out of frames: the oldest ephemeral page goes
	}
	if m.free == 0 {
		return ETmem, !evict
	}
	m.free, m.used[p.vm], p.pages = m.free-1, m.used[p.vm]+1, p.pages+1
	m.where[key] = modelLocal // a tier copy, if any, is superseded
	if p.kind == Ephemeral {
		m.lru = append(m.lru, key)
	}
	return STmem, false
}

// putRun is PutBatch over distinct keys, and Put as a run of one: local
// attempts stripe by stripe, then the keys that wait for an eviction, then
// the tier walk of the refused keys — re-offers to the tier a key is
// tracked in first, then the stack top down, skipping the tier that just
// refused the key.
func (m *modelTmem) putRun(keys []Key) []Status {
	sts := make([]Status, len(keys))
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(m.stripe(keys[a]), m.stripe(keys[b])) })
	var slow, offer []int
	settle := func(i int, st Status) {
		if st == ETmem && len(m.tierCaps) > 0 {
			offer = append(offer, i)
		} else {
			sts[i] = st
		}
	}
	for _, i := range order {
		st, retry := m.tryPut(keys[i], false)
		if retry {
			slow = append(slow, i)
			continue
		}
		settle(i, st)
	}
	for _, i := range slow {
		st, _ := m.tryPut(keys[i], true)
		settle(i, st)
	}

	from := map[int]int{} // offered key -> the tier it was tracked in
	var rem []int
	for _, i := range offer {
		if w, known := m.where[keys[i]]; known {
			from[i] = w
		} else {
			rem = append(rem, i)
		}
	}
	for ti := range m.tierCaps {
		for _, i := range offer {
			if w, ok := from[i]; !ok || w != ti {
				continue
			}
			if m.refusing[ti] {
				delete(m.where, keys[i]) // the tier dropped its copy
				rem = append(rem, i)
			} else {
				sts[i] = STmem
			}
		}
	}
	for ti, limit := range m.tierCaps {
		next := rem[:0]
		for _, i := range rem {
			if w, ok := from[i]; (!ok || w != ti) && len(m.tracked(ti)) < limit {
				m.where[keys[i]] = ti
				sts[i] = STmem
				continue
			}
			next = append(next, i)
		}
		rem = next
	}
	for _, i := range rem {
		sts[i] = ETmem
	}
	return sts
}

func (m *modelTmem) get(key Key) Status {
	p := m.pools[key.Pool]
	if p == nil {
		return EInval
	}
	if _, known := m.where[key]; !known {
		return ETmem
	}
	if p.kind == Ephemeral || p.exclusive { // destructive, wherever the page sat
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
// index changes shape — a table at its maximum load and the doubling past
// it, leaves emptied and reused — and then pushed against the node's 300
// frames, where puts evict, overflow and fail. Page ops go one key at a
// time or, for puts and gets, as runs of distinct keys (PutBatch,
// GetBatch). With tiers — one, or two of different sizes — now and then one
// refuses to replace the pages it holds, so re-offers, the skipped refuser
// and the walk order are checked on both paths. The swap cases add a
// pool with exclusive gets per VM and draw half their keys from a cursor
// that walks an object's indices in order across run boundaries, as
// frontswap's swap slots do.
func TestBackendMatchesMapModel(t *testing.T) {
	for _, swap := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			for _, caps := range [][]int{nil, {40}, {24, 40}} {
				name := "0"
				if len(caps) > 0 {
					name = strings.Trim(strings.ReplaceAll(fmt.Sprint(caps), " ", "+"), "[]")
				}
				name = fmt.Sprintf("shards-%d/tier-%s", shards, name)
				if swap {
					name += "/swap"
				}
				t.Run(name, func(t *testing.T) {
					runModelOps(t, shards, caps, swap)
				})
			}
		}
	}
}

func runModelOps(t *testing.T, shards int, tierCaps []int, swap bool) {
	const (
		total = mem.Pages(300)
		ops   = 3000
	)
	waypoints := []int{50, 46, 98, 94, 194, 190, 258, 254, 500, 500} // 500: more than fits

	b := NewBackendOpts(total, Options{Shards: shards, NewStore: func() PageStore { return NewMetaStore(testPage) }})
	m := &modelTmem{free: total, tierCaps: tierCaps, refusing: make([]bool, len(tierCaps)), pools: map[PoolID]*modelPool{},
		used: map[VMID]mem.Pages{}, target: map[VMID]mem.Pages{1: Unlimited, 2: Unlimited}, where: map[Key]int{},
		stripe: func(k Key) int { return int(k.hash() & b.shardMask) }}
	var tiers []*fakeTier
	for _, c := range tierCaps {
		tiers = append(tiers, newFakeTier(c))
		b.AttachTier(tiers[len(tiers)-1])
	}

	rng := rand.New(rand.NewSource(0x7E4D))
	var live []PoolID        // pools to draw keys from: VM 1's and VM 2's, one of each kind
	stale := PoolID(1 << 30) // the last destroyed pool, or one that never was
	newPool := func(vm VMID, kind PoolKind, exclusive bool) PoolID {
		var id PoolID
		if exclusive {
			id = b.NewExclusivePool(vm) // kind is Persistent
		} else {
			id = b.NewPool(vm, kind)
		}
		m.pools[id] = &modelPool{vm: vm, kind: kind, exclusive: exclusive}
		return id
	}
	for _, vm := range []VMID{1, 2} {
		live = append(live, newPool(vm, Persistent, false), newPool(vm, Ephemeral, false))
		if swap {
			live = append(live, newPool(vm, Persistent, true))
		}
	}
	cursor := PageIndex(0) // the swap cases' sequential index
	randomKey := func() Key {
		if swap && rng.Intn(2) == 0 {
			cursor = (cursor + 1) % 200
			return Key{Pool: live[rng.Intn(len(live))], Object: 1, Index: cursor}
		}
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
	// trackedKey picks a key some tier holds, when there is one.
	trackedKey := func() Key {
		var ks []Key
		for k, w := range m.where {
			if w != modelLocal {
				ks = append(ks, k)
			}
		}
		if len(ks) == 0 {
			return heldKey()
		}
		slices.SortFunc(ks, func(a, b Key) int {
			return cmp.Or(cmp.Compare(a.Pool, b.Pool), cmp.Compare(a.Object, b.Object), cmp.Compare(a.Index, b.Index))
		})
		return ks[rng.Intn(len(ks))]
	}
	// runOf draws up to 16 distinct keys.
	runOf := func(pick func() Key) []Key {
		var ks []Key
		for n := 1 + rng.Intn(16); len(ks) < n; n-- {
			if k := pick(); !slices.Contains(ks, k) {
				ks = append(ks, k)
			}
		}
		return ks
	}

	for i := 0; i < ops; i++ {
		grow := len(m.where) < waypoints[i*len(waypoints)/ops]
		var op string
		var got, want any
		put := func(k Key) { op, got, want = fmt.Sprint("Put ", k), b.Put(k, nil), m.putRun([]Key{k})[0] }
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
		putRun := func(ks []Key) {
			sts := make([]Status, len(ks))
			b.PutBatch(ks, nil, sts)
			op, got, want = fmt.Sprint("PutBatch ", ks), fmt.Sprint(sts), fmt.Sprint(m.putRun(ks))
		}
		getRun := func(ks []Key) {
			sts := make([]Status, len(ks))
			b.GetBatch(ks, nil, sts)
			var msts []Status
			for _, k := range ks {
				msts = append(msts, m.get(k))
			}
			op, got, want = fmt.Sprint("GetBatch ", ks), fmt.Sprint(sts), fmt.Sprint(msts)
		}
		// A page op goes one key at a time or, one time in four, as a run.
		pageOp := func(one func(Key), run func([]Key), pick func() Key) {
			if rng.Intn(4) == 0 {
				run(runOf(pick))
			} else {
				one(pick())
			}
		}

		switch r := rng.Intn(1000); {
		case r < 25:
			vm, target := VMID(1+rng.Intn(2)), Unlimited
			if rng.Intn(2) == 0 {
				target = mem.Pages(rng.Intn(int(total) / 2))
			}
			op = fmt.Sprint("SetTarget ", vm, " ", target)
			b.SetTarget(vm, target)
			m.target[vm] = target
		case r < 28:
			j := rng.Intn(len(live))
			p := m.pools[live[j]]
			destroy(Key{Pool: live[j]})
			stale, live[j] = live[j], newPool(p.vm, p.kind, p.exclusive)
		case r < 34:
			flushObject(randomKey())
		case r < 40: // every operation on a pool that is gone
			k := randomKey()
			k.Pool = stale
			[]func(Key){put, get, flush, flushObject, destroy}[rng.Intn(5)](k)
		case r < 46 && len(tiers) > 0: // a tier starts or stops refusing replacements
			ti := rng.Intn(len(tiers))
			m.refusing[ti] = !m.refusing[ti]
			tiers[ti].refuseReplace = m.refusing[ti]
			op = fmt.Sprint("RefuseReplace ", ti, " ", m.refusing[ti])
		case grow && r < 800:
			pageOp(put, putRun, randomKey)
		case grow && r < 850, !grow && r < 80:
			pageOp(put, putRun, heldKey)
		case grow && r < 880, !grow && r < 100:
			pageOp(put, putRun, trackedKey)
		case grow && r < 920, !grow && r < 250:
			pageOp(get, getRun, heldKey)
		case grow && r < 950, !grow && r < 300:
			pageOp(get, getRun, trackedKey)
		case grow, r < 850:
			flush(heldKey())
		case r < 930:
			pageOp(put, putRun, randomKey)
		case r < 960:
			pageOp(get, getRun, randomKey)
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
			indexed += sh.ix.Len()
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
		for ti, tier := range tiers {
			if want := m.tracked(ti); !maps.Equal(tier.pages, want) {
				fail("tier %d holds %d pages, model tracks %d there, or different ones", ti, len(tier.pages), len(want))
			}
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
		if n := b.shards[0].ix.Len(); n != 0 {
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
