package tmem

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"smartmem/internal/mem"
)

// Unlimited is the mm_target value meaning "no enforcement": the default
// greedy behaviour where a VM may consume every free tmem page.
const Unlimited = mem.Pages(math.MaxInt64)

// Pool is one guest-created tmem pool.
type Pool struct {
	id   PoolID
	vm   VMID
	kind PoolKind
	acct *vmAccount
	// pages counts stored pages; atomic because a pool's entries spread
	// across shards.
	pages atomic.Int64
	// dead flips when the pool is destroyed. Entry inserts re-check it
	// under the shard lock, so no insert can race past a purge.
	dead atomic.Bool
}

// ID returns the pool identifier.
func (p *Pool) ID() PoolID { return p.id }

// VM returns the owning VM.
func (p *Pool) VM() VMID { return p.vm }

// Kind returns the pool kind.
func (p *Pool) Kind() PoolKind { return p.kind }

// Pages returns the number of pages currently stored in the pool.
func (p *Pool) Pages() mem.Pages { return mem.Pages(p.pages.Load()) }

// vmAccount is the hypervisor's per-VM bookkeeping (Table I,
// vm_data_hyp[id].*), plus cumulative diagnostics. Every field is atomic:
// the hot path updates them from whichever shard holds the page, and the
// statistics sampler aggregates a snapshot without stopping the world.
type vmAccount struct {
	id       VMID
	tmemUsed atomic.Int64
	mmTarget atomic.Int64

	// Interval counters, reset at each statistics sample (1 s).
	putsTotal atomic.Uint64
	putsSucc  atomic.Uint64

	// Cumulative counters (never reset). cumulPutsFailed feeds
	// reconf-static's activity detection (Algorithm 3).
	cumulPutsTotal  atomic.Uint64
	cumulPutsSucc   atomic.Uint64
	cumulGetsTotal  atomic.Uint64
	cumulGetsHit    atomic.Uint64
	cumulFlushes    atomic.Uint64
	cumulEphEvicted atomic.Uint64 // ephemeral pages evicted from this VM
}

func newVMAccount(vm VMID) *vmAccount {
	a := &vmAccount{id: vm}
	a.mmTarget.Store(int64(Unlimited))
	return a
}

func (a *vmAccount) target() mem.Pages { return mem.Pages(a.mmTarget.Load()) }

func (a *vmAccount) cumulPutsFailed() uint64 {
	// Load succ before total: a concurrent put bumps total first, so the
	// later total load can only be >= the earlier succ load and the
	// unsigned subtraction cannot wrap.
	succ := a.cumulPutsSucc.Load()
	return a.cumulPutsTotal.Load() - succ
}

// Backend is the hypervisor tmem implementation: the fine-grained page
// allocator plus target enforcement of paper Algorithm 1. All methods are
// safe for concurrent use.
//
// The store is sharded: keys hash to one of N lock stripes, each owning
// its slice of the key index (one flat hash table per stripe, see shard),
// its own page store and one segment of the ephemeral LRU. Capacity stays
// global — the free-frame count is one atomic counter (frames are counted,
// not numbered: nothing is addressed by frame), per-VM targets are enforced
// through atomic accounts, and eviction picks the node-wide oldest
// ephemeral page across all stripes. With a single shard (the NewBackend
// default) every operation funnels through one lock in the exact order it
// was issued, which keeps the simulation path deterministic.
type Backend struct {
	shards    []*shard
	shardMask uint64

	// tiers are the hierarchy levels below the local striped store (tier 0):
	// overflow puts, misses and flushes cascade down this slice in order.
	// Attached before traffic starts and read lock-free on the data path.
	tiers []Tier
	// tiersView is the immutable snapshot Tiers returns (rebuilt on attach).
	tiersView []Tier

	totalPages mem.Pages
	// freePages is the frame allocator (node_info.free_tmem): a put takes a
	// frame by decrementing it while positive, a drop gives it back.
	freePages atomic.Int64
	// lruClock stamps ephemeral entries for cross-shard age comparison.
	lruClock atomic.Uint64

	// pools is the live pool table, indexed by PoolID (nil = no such pool).
	// Readers load the published slice and never lock; writers (pool
	// creation and destruction) copy, edit and republish it under poolMu.
	pools    atomic.Pointer[[]*Pool]
	poolMu   sync.Mutex
	nextPool PoolID

	vmMu sync.RWMutex
	vms  map[VMID]*vmAccount

	pageSize mem.Bytes

	// batchPool recycles the scratch state of PutBatch/GetBatch (see
	// batch.go) so warm batch calls allocate nothing.
	batchPool sync.Pool
}

// Options configures a sharded backend (see NewBackendOpts).
type Options struct {
	// Shards is the number of lock stripes, rounded up to a power of two
	// and clamped to [1, 256]. 0 and 1 both select the deterministic
	// single-stripe mode NewBackend uses.
	Shards int
	// NewStore constructs one page store per shard. Every store must
	// report the same page size. Required.
	NewStore func() PageStore
}

// maxShards bounds the stripe count; past the core count of any realistic
// host more stripes only add per-stripe overhead.
const maxShards = 256

// maxPools bounds pool identifiers: the pool table is indexed by id, and
// ids are never reused, so this is the number of pools one backend can
// create over its lifetime.
const maxPools = 1 << 20

func normShards(n int) int {
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewBackend creates a tmem backend managing totalPages frames whose page
// contents are retained in store. The store's page size defines the page
// size of the node. The backend has a single shard: operations serialize
// in issue order, the deterministic mode the simulator depends on. Servers
// wanting multi-core throughput use NewBackendOpts.
func NewBackend(totalPages mem.Pages, store PageStore) *Backend {
	if store == nil {
		panic("tmem: nil page store")
	}
	return newBackend(totalPages, []PageStore{store})
}

// NewBackendOpts creates a sharded backend: opts.Shards lock stripes, each
// backed by its own store from opts.NewStore. Observable put/get/flush
// semantics match NewBackend; only the order in which concurrent
// operations interleave (and therefore which ephemeral page is "oldest"
// within one LRU clock tick) may differ.
func NewBackendOpts(totalPages mem.Pages, opts Options) *Backend {
	if opts.NewStore == nil {
		panic("tmem: Options.NewStore is required")
	}
	n := normShards(opts.Shards)
	stores := make([]PageStore, n)
	for i := range stores {
		stores[i] = opts.NewStore()
		if stores[i] == nil {
			panic("tmem: Options.NewStore returned nil")
		}
		if stores[i].PageSize() != stores[0].PageSize() {
			panic(fmt.Sprintf("tmem: shard stores disagree on page size: %d vs %d",
				stores[i].PageSize(), stores[0].PageSize()))
		}
	}
	return newBackend(totalPages, stores)
}

func newBackend(totalPages mem.Pages, stores []PageStore) *Backend {
	if totalPages < 0 {
		panic("tmem: negative page count")
	}
	n := len(stores)
	b := &Backend{
		shards:     make([]*shard, n),
		shardMask:  uint64(n - 1),
		totalPages: totalPages,
		vms:        make(map[VMID]*vmAccount),
		pageSize:   mem.Bytes(stores[0].PageSize()),
	}
	b.pools.Store(new([]*Pool))
	b.batchPool.New = func() any { return new(batchScratch) }
	b.freePages.Store(int64(totalPages))
	for i := range b.shards {
		b.shards[i] = newShard(stores[i])
	}
	return b
}

// Shards returns the number of lock stripes.
func (b *Backend) Shards() int { return len(b.shards) }

// AttachTier appends a tier to the backend's hierarchy: the local striped
// store is tier 0, the first attached tier is tier 1, and so on. Tiers must
// be attached before the backend serves traffic — the tier slice is read
// without a lock on the data path.
func (b *Backend) AttachTier(t Tier) {
	if t == nil {
		panic("tmem: nil tier")
	}
	b.tiers = append(b.tiers, t)
	// Rebuild the immutable view Tiers hands out. Copied once per attach
	// (setup time), never per call — samplers and reporters may poll Tiers
	// without allocating.
	view := make([]Tier, len(b.tiers))
	copy(view, b.tiers)
	b.tiersView = view
}

// Tiers returns the attached tiers (tier 1 and below), in order. The
// returned slice is a cached immutable view — callers must not modify it —
// so polling it from samplers costs no allocation.
func (b *Backend) Tiers() []Tier { return b.tiersView }

// shardFor maps a key to its lock stripe.
func (b *Backend) shardFor(key Key) *shard {
	if b.shardMask == 0 {
		return b.shards[0]
	}
	return b.shards[key.hash()&b.shardMask]
}

// allocFrame takes one free frame; false when node free_tmem is zero. A
// frame is given back with freePages.Add(1).
func (b *Backend) allocFrame() bool {
	for {
		n := b.freePages.Load()
		if n <= 0 {
			return false
		}
		if b.freePages.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// PageSize returns the node page size in bytes.
func (b *Backend) PageSize() mem.Bytes { return b.pageSize }

// TotalPages returns the total tmem capacity in pages (node_info.total_tmem).
func (b *Backend) TotalPages() mem.Pages { return b.totalPages }

// FreePages returns the number of free tmem pages (node_info.free_tmem).
func (b *Backend) FreePages() mem.Pages { return mem.Pages(b.freePages.Load()) }

// RegisterVM creates the hypervisor-side account for a VM. Registering an
// already-known VM is a no-op. New VMs start with an Unlimited target
// (greedy default) — management policies overwrite it on their first tick.
func (b *Backend) RegisterVM(vm VMID) { b.register(vm) }

func (b *Backend) register(vm VMID) *vmAccount {
	b.vmMu.Lock()
	defer b.vmMu.Unlock()
	a, ok := b.vms[vm]
	if !ok {
		a = newVMAccount(vm)
		b.vms[vm] = a
	}
	return a
}

func (b *Backend) account(vm VMID) *vmAccount {
	b.vmMu.RLock()
	defer b.vmMu.RUnlock()
	return b.vms[vm]
}

// pool resolves a live pool by id. Lock-free: a pool destroyed after the
// load is caught by the dead re-check inserts make under the shard lock.
func (b *Backend) pool(id PoolID) *Pool {
	if ps := *b.pools.Load(); uint32(id) < uint32(len(ps)) {
		return ps[id]
	}
	return nil
}

// setPool publishes a pool table with slot id set to p (nil removes the
// pool). Caller holds poolMu.
func (b *Backend) setPool(id PoolID, p *Pool) {
	old := *b.pools.Load()
	ps := make([]*Pool, max(len(old), int(id)+1))
	copy(ps, old)
	ps[id] = p
	b.pools.Store(&ps)
}

// UnregisterVM removes a VM and destroys all of its pools (VM shutdown).
// The pool removal and account deletion happen under one poolMu critical
// section so a concurrent NewPool for the same VM either completes first
// (and its pool is destroyed here) or starts after (and re-creates a fresh
// account) — it can never attach a live pool to a deleted account.
func (b *Backend) UnregisterVM(vm VMID) {
	b.poolMu.Lock()
	ps := slices.Clone(*b.pools.Load())
	var doomed []*Pool
	for id, p := range ps {
		if p != nil && p.vm == vm {
			doomed = append(doomed, p)
			ps[id] = nil
		}
	}
	b.pools.Store(&ps)
	b.vmMu.Lock()
	delete(b.vms, vm)
	b.vmMu.Unlock()
	b.poolMu.Unlock()
	b.purgePools(doomed)
}

// NewPool creates a tmem pool for vm (the guest's kernel-module init path)
// and returns its identifier. The VM account is resolved under poolMu (see
// UnregisterVM for why the two must be atomic).
func (b *Backend) NewPool(vm VMID, kind PoolKind) PoolID {
	b.poolMu.Lock()
	defer b.poolMu.Unlock()
	id := b.nextPool
	if id >= maxPools {
		return InvalidPool
	}
	b.nextPool++
	b.setPool(id, &Pool{id: id, vm: vm, kind: kind, acct: b.register(vm)})
	return id
}

// RestorePool re-creates a pool under an explicit identifier — the crash-
// recovery path replaying a durable journal, where guests hold wire-
// visible pool ids that must survive the restart. The id allocator is
// advanced past id so later NewPool calls can never collide with a
// restored pool. Restoring a live id is an error.
func (b *Backend) RestorePool(id PoolID, vm VMID, kind PoolKind) error {
	if id < 0 || id >= maxPools {
		return fmt.Errorf("tmem: restore of invalid pool id %d", id)
	}
	b.poolMu.Lock()
	defer b.poolMu.Unlock()
	if b.pool(id) != nil {
		return fmt.Errorf("tmem: restore of live pool %d", id)
	}
	b.setPool(id, &Pool{id: id, vm: vm, kind: kind, acct: b.register(vm)})
	if id >= b.nextPool {
		b.nextPool = id + 1
	}
	return nil
}

// DestroyPool flushes every page of the pool and removes it.
func (b *Backend) DestroyPool(id PoolID) error {
	b.poolMu.Lock()
	p := b.pool(id)
	if p == nil {
		b.poolMu.Unlock()
		return fmt.Errorf("tmem: destroy of unknown pool %d", id)
	}
	b.setPool(id, nil)
	b.poolMu.Unlock()
	b.purgePools([]*Pool{p})
	return nil
}

// purgePools marks every pool dead and drops their entries in a single
// sweep over the shards (one pass regardless of how many pools die — the
// VM-shutdown path hands over all of a VM's pools at once). The dead flags
// are set before any shard is scanned and inserts re-check them under the
// shard lock, so an insert either lands before the sweep reaches its shard
// (and is purged) or observes dead and fails.
func (b *Backend) purgePools(pools []*Pool) {
	if len(pools) == 0 {
		return
	}
	for _, p := range pools {
		p.dead.Store(true)
	}
	for _, sh := range b.shards {
		sh.mu.Lock()
		for e := range sh.each {
			if e.pool.dead.Load() {
				b.dropEntry(sh, e)
			}
		}
		sh.mu.Unlock()
	}
	// Release everything the lower tiers hold for the dead pools (one
	// remote pool destruction per tier and pool, not per page).
	for _, t := range b.tiers {
		for _, p := range pools {
			t.DropPool(p.id)
		}
	}
}

// dropEntry unindexes e; for a locally held page it first releases the
// frame and stored bytes and fixes all counters. The caller holds sh.mu and
// must not touch e afterwards.
func (b *Backend) dropEntry(sh *shard, e *entry) {
	if e.tier == tierLocal {
		sh.lruRemove(e)
		if err := sh.store.Drop(e.handle); err != nil {
			panic(fmt.Sprintf("tmem: page store accounting broken: %v", err))
		}
		b.freePages.Add(1)
		e.pool.pages.Add(-1)
		e.pool.acct.tmemUsed.Add(-1)
	}
	sh.remove(e)
}

// evictOldest drops the node-wide oldest ephemeral page to free one frame.
// Cross-shard victim selection: every shard's LRU head carries a global
// clock stamp; the smallest stamp is the oldest page on the node. Returns
// false when no ephemeral page exists anywhere.
func (b *Backend) evictOldest() bool {
	if len(b.shards) == 1 {
		return b.evictHead(b.shards[0])
	}
	for {
		var victim *shard
		var oldest uint64
		for _, sh := range b.shards {
			sh.mu.Lock()
			if e := sh.lru.next; e != &sh.lru && (victim == nil || e.stamp < oldest) {
				victim, oldest = sh, e.stamp
			}
			sh.mu.Unlock()
		}
		if victim == nil {
			return false
		}
		// The victim shard may have drained between the scan and now;
		// rescan rather than give up, because another shard may still
		// hold an evictable page.
		if b.evictHead(victim) {
			return true
		}
	}
}

// evictHead drops sh's oldest ephemeral entry; false if the segment is empty.
func (b *Backend) evictHead(sh *shard) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.lru.next
	if e == &sh.lru {
		return false
	}
	e.pool.acct.cumulEphEvicted.Add(1)
	b.dropEntry(sh, e)
	return true
}

// Put stores a page under key on behalf of the pool's VM, implementing
// paper Algorithm 1's PUT path:
//
//	if tmem_used >= mm_target   -> E_TMEM
//	else if free_tmem == 0      -> E_TMEM (after trying ephemeral eviction)
//	else allocate, copy, tmem_used++, puts_succ++
//	puts_total++ in all cases
//
// A put over an existing key replaces the page contents in place without
// consuming a new frame (Xen's "duplicate put" path). data may be nil for a
// zero page; it is copied before Put returns, so the caller may reuse the
// buffer — the page-copy–based interface of the paper.
//
// With tiers attached, a put the local store rejects with E_TMEM (over
// target or out of frames) is offered down the tier stack; the first tier
// accepting it turns the guest-visible status back into S_TMEM, sparing the
// guest a disk swap. The local rejection still counts as a failed put in
// the MemStats sample, so policies keep seeing the pressure that caused the
// overflow.
func (b *Backend) Put(key Key, data []byte) Status { return b.put(key, data, true) }

// put is Put's body. withTiers is off only for a Loopback peer, so an
// overflow page accepted on behalf of a peer never cascades into this
// node's tiers. The other op bodies take the same argument.
func (b *Backend) put(key Key, data []byte, withTiers bool) Status {
	p := b.pool(key.Pool)
	if p == nil {
		return EInval
	}
	a := p.acct
	a.putsTotal.Add(1)
	a.cumulPutsTotal.Add(1)
	sh := b.shardFor(key)
	st, fromTier := b.putRetry(sh, p, a, key, data)
	if !withTiers || len(b.tiers) == 0 {
		return st
	}
	switch {
	case st == STmem && fromTier >= 0:
		b.supersede(sh, key, fromTier)
	case st == ETmem:
		// A run of one down the walk PutBatch takes. Every slice lives on
		// this stack frame: offer keeps none of them.
		var (
			ft       [1]int16
			run, rem [1]int32
			sts      [1]Status
		)
		b.offer(&tierWalk{
			keys: []Key{key}, pools: []*Pool{p}, datas: [][]byte{data}, sts: sts[:],
			offer: []int32{0}, ft: ft[:], run: run[:], rem: rem[:],
		}, nil)
		return sts[0]
	}
	return st
}

// supersede drops the lower-tier copy of a key that just landed locally
// (fromTier is the tier it was tracked in), so the stale copy can never
// shadow the new contents — unless a concurrent overflow re-tracked the key
// in the meantime (then the tier slot holds that newer acknowledged copy,
// not our stale one, and must survive). Concurrent same-key operations from
// KV clients otherwise have undefined ordering, as with any concurrent
// store.
func (b *Backend) supersede(sh *shard, key Key, fromTier int) {
	if sh.remoteTier(key) < 0 {
		b.tiers[fromTier].FlushPage(key)
	}
}

// tierWalk is a run of puts the local store refused, on its way down the
// tier stack. offer reads its slices and keeps none of them, so Put can
// build a walk of one on its stack.
type tierWalk struct {
	keys  []Key
	pools []*Pool
	datas [][]byte // nil: zero pages
	sts   []Status // receives one answer per offered key
	offer []int32  // the refused keys, as indexes into keys
	// Scratch: ft has a slot per key, run and rem room for every offered key.
	ft       []int16
	run, rem []int32
}

// offer is the one tier walk. Every key of w.offer was refused by the local
// store with E_TMEM:
//
//  1. a key already tracked in a tier is re-offered there first (the tier
//     replaces its contents in place), one run per tier;
//  2. what is untracked, or was just refused, walks the stack top down, one
//     run per tier, skipping the tier that just refused it;
//  3. a key a tier accepts is tracked there (noteRemoteIfFree) or — when a
//     concurrent put landed it locally or its pool died meanwhile — flushed
//     from that tier again.
//
// A key no tier takes answers E_TMEM. sc carries the marshalling buffers of
// runs longer than one; a walk of one passes nil.
func (b *Backend) offer(w *tierWalk, sc *batchScratch) {
	// w.ft[i] is the tier key i was tracked in (-1 for none), which is also
	// the one tier the walk must not ask again.
	rem := w.rem[:0]
	for _, i := range w.offer {
		ti := b.shardFor(w.keys[i]).remoteTier(w.keys[i])
		w.ft[i] = int16(ti)
		if ti < 0 {
			rem = append(rem, i)
		}
	}
	if len(rem) < len(w.offer) {
		for ti, t := range b.tiers {
			run := w.run[:0]
			for _, i := range w.offer {
				if int(w.ft[i]) == ti {
					run = append(run, i)
				}
			}
			if len(run) == 0 {
				continue
			}
			b.offerRun(t, w, run, sc)
			for _, i := range run {
				if w.sts[i] == STmem {
					b.accepted(t, ti, w, i)
					continue
				}
				b.shardFor(w.keys[i]).dropRemote(w.keys[i])
				rem = append(rem, i)
			}
		}
	}
	for ti, t := range b.tiers {
		if len(rem) == 0 {
			break
		}
		run := w.run[:0]
		for _, i := range rem {
			if int(w.ft[i]) != ti {
				run = append(run, i)
			}
		}
		if len(run) == 0 {
			continue
		}
		b.offerRun(t, w, run, sc)
		next := rem[:0]
		for _, i := range rem {
			if int(w.ft[i]) != ti && w.sts[i] == STmem {
				b.accepted(t, ti, w, i)
				continue
			}
			next = append(next, i)
		}
		rem = next
	}
	for _, i := range rem {
		w.sts[i] = ETmem // every tier refused the page
	}
}

// offerRun offers the keys of run to t, leaving each answer in w.sts: one
// Put for a run of one, else one PutBatch marshalled through sc.
func (b *Backend) offerRun(t Tier, w *tierWalk, run []int32, sc *batchScratch) {
	if len(run) == 1 {
		i := run[0]
		w.sts[i] = t.Put(w.keys[i], w.pools[i].kind, w.data(i))
		return
	}
	sc.subKeys, sc.subKinds, sc.subDatas, sc.subSts = sc.subKeys[:0], sc.subKinds[:0], sc.subDatas[:0], sc.subSts[:0]
	for _, i := range run {
		sc.subKeys = append(sc.subKeys, w.keys[i])
		sc.subKinds = append(sc.subKinds, w.pools[i].kind)
		sc.subDatas = append(sc.subDatas, w.data(i))
		sc.subSts = append(sc.subSts, ETmem)
	}
	t.PutBatch(sc.subKeys, sc.subKinds, sc.subDatas, sc.subSts)
	for j, i := range run {
		w.sts[i] = sc.subSts[j]
	}
}

// accepted settles key i, which tier ti (t) took: tracked there, or
// flushed from it again (see offer, step 3).
func (b *Backend) accepted(t Tier, ti int, w *tierWalk, i int32) {
	if !b.shardFor(w.keys[i]).noteRemoteIfFree(w.pools[i], w.keys[i], ti) {
		t.FlushPage(w.keys[i])
	}
	w.sts[i] = STmem
}

// data is key i's page (nil: the zero page).
func (w *tierWalk) data(i int32) []byte {
	if w.datas == nil {
		return nil
	}
	return w.datas[i]
}

// putRetry runs the local put attempt/evict loop of Algorithm 1. The caller
// has already bumped the puts_total counters.
func (b *Backend) putRetry(sh *shard, p *Pool, a *vmAccount, key Key, data []byte) (st Status, fromTier int) {
	for {
		st, retry, ti := b.tryPut(sh, p, a, key, data)
		if !retry {
			return st, ti
		}
		// Algorithm 1, line 7: the node is out of frames. Ephemeral pages
		// are sacrificed first, as in Xen, before failing the put. Each
		// eviction frees exactly one frame, so the loop makes progress
		// even when concurrent puts race for it.
		if !b.evictOldest() {
			return ETmem, -1
		}
	}
}

// tryPut performs one put attempt under the shard lock. retry is true when
// the attempt failed only for want of a free frame; fromTier is the tier a
// lower-tier copy was tracked under when a fresh insert succeeded (-1
// otherwise) — the tracking entry is consumed here, under the lock.
func (b *Backend) tryPut(sh *shard, p *Pool, a *vmAccount, key Key, data []byte) (st Status, retry bool, fromTier int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return b.tryPutLocked(sh, p, a, key, data)
}

// tryPutLocked is tryPut's body; the caller holds sh.mu (the batch path
// holds it across a whole run of same-stripe keys).
func (b *Backend) tryPutLocked(sh *shard, p *Pool, a *vmAccount, key Key, data []byte) (st Status, retry bool, fromTier int) {
	if p.dead.Load() {
		return EInval, false, -1
	}

	// Duplicate put: replace contents, no capacity change.
	e := sh.lookup(key)
	if e != nil && e.tier == tierLocal {
		h, err := sh.store.Save(data)
		if err != nil {
			return EInval, false, -1
		}
		if err := sh.store.Drop(e.handle); err != nil {
			panic(fmt.Sprintf("tmem: page store accounting broken: %v", err))
		}
		e.handle = h
		if p.kind == Ephemeral {
			sh.lruRemove(e)
			sh.lruPush(e, b.lruClock.Add(1))
		}
		a.putsSucc.Add(1)
		a.cumulPutsSucc.Add(1)
		return STmem, false, -1
	}

	// Algorithm 1, line 5: target enforcement. Reserve the page with an
	// atomic increment and roll back on overshoot — a plain check-then-act
	// would let concurrent puts on different shards jointly exceed the
	// target. Equivalent to the old "used >= target" check when serial.
	if mem.Pages(a.tmemUsed.Add(1)) > a.target() {
		a.tmemUsed.Add(-1)
		return ETmem, false, -1
	}
	if !b.allocFrame() {
		a.tmemUsed.Add(-1)
		return ETmem, true, -1
	}
	h, err := sh.store.Save(data)
	if err != nil {
		b.freePages.Add(1)
		a.tmemUsed.Add(-1)
		return EInval, false, -1
	}
	// A key tracked in a lower tier turns local in place: its entry is the
	// tracking record, consumed here.
	fromTier = -1
	if e != nil {
		fromTier = int(e.tier)
	} else {
		e = sh.insert(key)
	}
	e.pool, e.handle, e.tier = p, h, tierLocal
	p.pages.Add(1)
	if p.kind == Ephemeral {
		sh.lruPush(e, b.lruClock.Add(1))
	}
	a.putsSucc.Add(1)
	a.cumulPutsSucc.Add(1)
	return STmem, false, fromTier
}

// Get copies the page stored under key into dst (which may be nil when the
// caller only cares about presence). Ephemeral hits are always destructive
// (Xen semantics); persistent hits leave the page in place — the guest
// issues an explicit FlushPage when it invalidates the swap slot.
//
// With tiers attached, a local miss on a key whose copy was shipped to a
// lower tier is served from that tier (and counted as a hit: tmem served
// the page, wherever it sat).
func (b *Backend) Get(key Key, dst []byte) Status { return b.get(key, dst, true) }

// get is Get's body (see put); with tiers off a key tracked in a lower tier
// reads as a miss.
func (b *Backend) get(key Key, dst []byte, withTiers bool) Status {
	p := b.pool(key.Pool)
	if p == nil {
		return EInval
	}
	a := p.acct
	a.cumulGetsTotal.Add(1)

	sh := b.shardFor(key)
	sh.mu.Lock()
	e := sh.lookup(key)
	if e == nil || (e.tier != tierLocal && !withTiers) {
		sh.mu.Unlock()
		return ETmem
	}
	if e.tier == tierLocal {
		st := b.getHitLocked(sh, p, a, e, dst)
		sh.mu.Unlock()
		return st
	}
	ti := e.tier
	sh.mu.Unlock()
	return b.tierAnswered(p, key, b.tiers[ti].Get(key, dst))
}

// tierAnswered settles a get of a tier-tracked key with the tier's answer:
// a hit counts (tmem served the page, wherever it sat) and, being
// destructive for an ephemeral page, ends the tracking; a miss — an
// ephemeral drop on the peer, or the tier went down — ends it too.
func (b *Backend) tierAnswered(p *Pool, key Key, st Status) Status {
	if st == STmem {
		p.acct.cumulGetsHit.Add(1)
		if p.kind == Ephemeral {
			b.shardFor(key).dropRemote(key)
		}
		return STmem
	}
	b.shardFor(key).dropRemote(key)
	return ETmem
}

// getHitLocked serves a local hit; the caller holds sh.mu.
func (b *Backend) getHitLocked(sh *shard, p *Pool, a *vmAccount, e *entry, dst []byte) Status {
	if dst != nil {
		if err := sh.store.Load(e.handle, dst); err != nil {
			return EInval
		}
	}
	a.cumulGetsHit.Add(1)
	if p.kind == Ephemeral {
		b.dropEntry(sh, e)
	}
	return STmem
}

// Contains reports whether key is currently stored — locally or tracked in
// a lower tier (non-destructive even for ephemeral pools; diagnostic use
// only).
func (b *Backend) Contains(key Key) bool {
	if b.pool(key.Pool) == nil {
		return false
	}
	sh := b.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.lookup(key) != nil
}

// FlushPage invalidates a single page (paper Algorithm 1 FLUSH path:
// deallocate, tmem_used--). Flushing an absent page returns ETmem, which
// guests treat as harmless. A page whose live copy sits in a lower tier is
// flushed there.
func (b *Backend) FlushPage(key Key) Status { return b.flushPage(key, true) }

// flushPage is FlushPage's body (see put); with tiers off a key tracked in
// a lower tier is left alone and reads as absent.
func (b *Backend) flushPage(key Key, withTiers bool) Status {
	p := b.pool(key.Pool)
	if p == nil {
		return EInval
	}
	sh := b.shardFor(key)
	sh.mu.Lock()
	e := sh.lookup(key)
	if e == nil || (e.tier != tierLocal && !withTiers) {
		sh.mu.Unlock()
		return ETmem
	}
	ti := e.tier
	b.dropEntry(sh, e)
	sh.mu.Unlock()
	if ti >= 0 && b.tiers[ti].FlushPage(key) != STmem {
		return ETmem
	}
	p.acct.cumulFlushes.Add(1)
	return STmem
}

// FlushObject invalidates every page of an object, returning the number of
// pages freed. The object's pages spread across shards, so every stripe is
// visited (object flushes are rare next to page operations); pages tracked
// in lower tiers are flushed there with one object flush per involved tier,
// which reports what it actually freed.
func (b *Backend) FlushObject(pool PoolID, object ObjectID) (mem.Pages, Status) {
	return b.flushObject(pool, object, true)
}

// flushObject is FlushObject's body (see put); with tiers off the sweep
// still unindexes tier-tracked pages but asks no tier.
func (b *Backend) flushObject(pool PoolID, object ObjectID, withTiers bool) (mem.Pages, Status) {
	p := b.pool(pool)
	if p == nil {
		return 0, EInval
	}
	n, tracked := b.sweepObject(pool, object)
	for ti, cnt := range tracked {
		if cnt == 0 || !withTiers {
			continue
		}
		if freed, st := b.tiers[ti].FlushObject(pool, object); st == STmem {
			n += freed
		}
	}
	if n == 0 {
		return 0, ETmem
	}
	p.acct.cumulFlushes.Add(uint64(n))
	return n, STmem
}

// sweepObject sweeps an object out of every shard's index; n counts the
// locally held pages dropped, tracked[i] the pages that were tracked in
// tier i.
func (b *Backend) sweepObject(pool PoolID, object ObjectID) (n mem.Pages, tracked []mem.Pages) {
	tracked = make([]mem.Pages, len(b.tiers))
	for _, sh := range b.shards {
		sh.mu.Lock()
		for e := range sh.each {
			if e.key.Pool != pool || e.key.Object != object {
				continue
			}
			if e.tier == tierLocal {
				n++
			} else {
				tracked[e.tier]++
			}
			b.dropEntry(sh, e)
		}
		sh.mu.Unlock()
	}
	return n, tracked
}

// SetTarget installs the MM-computed allocation target for a VM
// (vm_data_hyp[id].mm_target). The hypervisor stores targets until the MM
// modifies them (paper §III-B). Unknown VMs are registered implicitly.
func (b *Backend) SetTarget(vm VMID, target mem.Pages) {
	if target < 0 {
		target = 0
	}
	b.register(vm).mmTarget.Store(int64(target))
}

// Target returns the current target of a VM.
func (b *Backend) Target(vm VMID) mem.Pages {
	if a := b.account(vm); a != nil {
		return a.target()
	}
	return 0
}

// UsedBy returns the pages currently consumed by a VM.
func (b *Backend) UsedBy(vm VMID) mem.Pages {
	if a := b.account(vm); a != nil {
		return mem.Pages(a.tmemUsed.Load())
	}
	return 0
}

// VMs returns the registered VM ids in ascending order.
func (b *Backend) VMs() []VMID {
	b.vmMu.RLock()
	ids := make([]VMID, 0, len(b.vms))
	for id := range b.vms {
		ids = append(ids, id)
	}
	b.vmMu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Footprint returns the host bytes retained across all shard page stores.
func (b *Backend) Footprint() int64 {
	var n int64
	for _, sh := range b.shards {
		sh.mu.Lock()
		n += sh.store.Footprint()
		sh.mu.Unlock()
	}
	return n
}

// CheckInvariants cross-checks all capacity accounting and the structure of
// every stripe's index. It is exercised by the property tests and may be
// called at any time; it stops the world (every stripe lock, in order) for
// the duration.
func (b *Backend) CheckInvariants() error {
	b.poolMu.Lock()
	defer b.poolMu.Unlock()
	for _, sh := range b.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	b.vmMu.RLock()
	defer b.vmMu.RUnlock()

	free := mem.Pages(b.freePages.Load())
	if free < 0 || free > b.totalPages {
		return fmt.Errorf("tmem: free counter %d out of range [0,%d]", free, b.totalPages)
	}
	used := b.totalPages - free

	pools := *b.pools.Load()
	entryPages := make([]mem.Pages, len(pools))
	var storeCount int
	for _, sh := range b.shards {
		indexed := 0
		for e := range sh.each {
			indexed++
			switch {
			case sh.lookup(e.key) != e:
				return fmt.Errorf("tmem: page %v is in the slab but the index does not find it", e.key)
			case b.pool(e.key.Pool) != e.pool:
				return fmt.Errorf("tmem: shard holds entries of unknown pool %d", e.key.Pool)
			case e.tier == tierLocal:
				entryPages[e.key.Pool]++
			case int(e.tier) >= len(b.tiers):
				return fmt.Errorf("tmem: page %v tracked in nonexistent tier %d", e.key, e.tier)
			case e.handle != NoHandle || e.prev != nil:
				return fmt.Errorf("tmem: page %v tracked in tier %d still holds local state", e.key, e.tier)
			}
		}
		if indexed != sh.live {
			return fmt.Errorf("tmem: index holds %d keys but the slab %d entries", sh.live, indexed)
		}
		storeCount += sh.store.Count()
	}
	var poolPages mem.Pages
	for id, p := range pools {
		if p == nil {
			continue
		}
		n := entryPages[id]
		if n != p.Pages() {
			return fmt.Errorf("tmem: pool %d page count %d != entries %d", id, p.Pages(), n)
		}
		poolPages += n
	}
	if poolPages != used {
		return fmt.Errorf("tmem: pools hold %d pages but %d frames are in use", poolPages, used)
	}
	if storeCount != int(used) {
		return fmt.Errorf("tmem: page stores hold %d pages but %d frames are in use", storeCount, used)
	}

	var vmPages mem.Pages
	for _, a := range b.vms {
		u := mem.Pages(a.tmemUsed.Load())
		if u < 0 {
			return fmt.Errorf("tmem: vm %d negative tmem_used %d", a.id, u)
		}
		vmPages += u
	}
	if vmPages != used {
		return fmt.Errorf("tmem: VM accounts sum to %d pages but %d frames are in use", vmPages, used)
	}
	for _, a := range b.vms {
		if succ, total := a.cumulPutsSucc.Load(), a.cumulPutsTotal.Load(); succ > total {
			return fmt.Errorf("tmem: vm %d puts_succ %d > puts_total %d", a.id, succ, total)
		}
	}
	return nil
}
