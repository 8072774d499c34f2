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
	// exclusive makes a hit destructive in a persistent pool too: the get
	// flushes the page it returns (Xen frontswap's "exclusive gets").
	exclusive bool
	// peer marks a pool Loopback created for another node's overflow: its
	// pages never leave the local store, so a page this node takes for a
	// peer never cascades into its own tiers (or bounces back).
	peer bool
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
// vm_data_hyp[id].*), plus cumulative diagnostics. tmem_used and mm_target
// are atomic: target enforcement is node-wide, whichever stripe a page
// lands in. The operation counters are per stripe instead (counts).
type vmAccount struct {
	id       VMID
	tmemUsed atomic.Int64
	mmTarget atomic.Int64

	// counts holds the cumulative operation counters (never reset), one
	// share per stripe: counts[i] is written only under shard i's lock, by
	// the op that holds it anyway. Readers sum the shares, each under its
	// stripe's lock.
	counts []vmCounts

	// sampledTotal and sampledSucc are the cumulative put counts at the
	// previous Sample, which turns them into Table I's interval counts.
	// Guarded by Backend.sampleMu.
	sampledTotal, sampledSucc uint64
}

// vmCounts is one stripe's share of a VM's cumulative counters. It fills a
// cache line, so the shares of one VM in different stripes never share one.
type vmCounts struct {
	putsTotal, putsSucc uint64
	getsTotal, getsHit  uint64
	flushes             uint64
	ephEvicted          uint64 // ephemeral pages evicted from this VM
	_                   [2]uint64
}

func (c *vmCounts) add(o *vmCounts) {
	c.putsTotal += o.putsTotal
	c.putsSucc += o.putsSucc
	c.getsTotal += o.getsTotal
	c.getsHit += o.getsHit
	c.flushes += o.flushes
	c.ephEvicted += o.ephEvicted
}

func newVMAccount(vm VMID, shards int) *vmAccount {
	a := &vmAccount{id: vm, counts: make([]vmCounts, shards)}
	a.mmTarget.Store(int64(Unlimited))
	return a
}

func (a *vmAccount) target() mem.Pages { return mem.Pages(a.mmTarget.Load()) }

// Backend is the hypervisor tmem implementation: the fine-grained page
// allocator plus target enforcement of paper Algorithm 1. All methods are
// safe for concurrent use.
//
// The store is sharded: keys hash by run — 8 consecutive page indices of
// one object — to one of N lock stripes, each owning its slice of the run
// index (one table of 8-entry leaves per stripe, see shard), its own page
// store, one segment of the ephemeral LRU and its share of the per-VM
// operation counters. Capacity stays global — the free-frame count is one
// atomic counter (frames are counted, not numbered: nothing is addressed
// by frame), per-VM targets are enforced through atomic accounts, and
// eviction picks the node-wide oldest ephemeral page across all stripes. With a single shard (the NewBackend
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

	// sampleMu serializes Sample, which owns vmAccount's sampled counts.
	sampleMu sync.Mutex

	pageSize mem.Bytes

	// batchPool recycles the scratch state of PutBatch/GetBatch (see
	// batch.go) so warm batch calls allocate nothing. It is a pointer
	// because the runtime's pool list keeps every used pool reachable
	// through one more GC: an embedded pool would keep a dropped Backend,
	// and every page it stores, alive too.
	batchPool *sync.Pool
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
	b.batchPool = &sync.Pool{New: func() any { return new(batchScratch) }}
	b.freePages.Store(int64(totalPages))
	for i := range b.shards {
		b.shards[i] = newShard(i, stores[i])
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
		a = newVMAccount(vm, len(b.shards))
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
// and returns its identifier, or InvalidPool for a kind other than
// Persistent and Ephemeral. The VM account is resolved under poolMu (see
// UnregisterVM for why the two must be atomic).
func (b *Backend) NewPool(vm VMID, kind PoolKind) PoolID { return b.newPool(vm, kind, false, false) }

// NewExclusivePool creates a persistent pool with exclusive gets, the mode
// Xen's frontswap runs in: a get that hits also flushes the page, so a
// swap-in is one store call. Counts, capacity and lower tiers end up as
// after a Get and a FlushPage of the key on a plain persistent pool.
func (b *Backend) NewExclusivePool(vm VMID) PoolID { return b.newPool(vm, Persistent, true, false) }

func (b *Backend) newPool(vm VMID, kind PoolKind, exclusive, peer bool) PoolID {
	if kind != Persistent && kind != Ephemeral {
		return InvalidPool
	}
	b.poolMu.Lock()
	defer b.poolMu.Unlock()
	id := b.nextPool
	if id >= maxPools {
		return InvalidPool
	}
	b.nextPool++
	b.setPool(id, &Pool{id: id, vm: vm, kind: kind, exclusive: exclusive, peer: peer, acct: b.register(vm)})
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
		for _, e := range sh.ix.All {
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
	e.pool.acct.counts[sh.idx].ephEvicted++
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
// overflow. A peer pool's refusal stands: it never walks the tiers.
func (b *Backend) Put(key Key, data []byte) Status {
	p := b.pool(key.Pool)
	if p == nil || b.oversize(data) {
		return EInval
	}
	sh := b.shardFor(key)
	st, ti := b.putRetry(sh, p, key, data, true)
	switch {
	case st == STmem && ti >= 0:
		b.supersede(sh, key, ti)
	case st == ETmem && b.walksTiers(p):
		// A run of one down the walk PutBatch takes. Every slice lives on
		// this stack frame: offer keeps none of them.
		var (
			ft       = [1]int16{int16(ti)}
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

// walksTiers reports whether a put of p the local store refused goes down
// the tier stack: there is one, and p is not a peer pool. Only a pool that
// walks the tiers ever has a key tracked in one.
func (b *Backend) walksTiers(p *Pool) bool { return len(b.tiers) > 0 && !p.peer }

// oversize reports a page longer than the node's page size: malformed, so
// neither the local store nor any tier may see it (a tier would stage it
// into one page and silently drop the tail).
func (b *Backend) oversize(data []byte) bool { return len(data) > int(b.pageSize) }

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

// offer is the one tier walk. Every key i of w.offer was refused by the
// local store with E_TMEM, and w.ft[i] is the tier the refusal found it
// tracked in (-1 for none):
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
	// w.ft[i] is also the one tier the walk must not ask again.
	rem := w.rem[:0]
	for _, i := range w.offer {
		if w.ft[i] < 0 {
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

// putRetry runs the local put attempt/evict loop of Algorithm 1. count is
// set unless an earlier attempt already counted the put in puts_total. ti
// is tryPutLocked's.
func (b *Backend) putRetry(sh *shard, p *Pool, key Key, data []byte, count bool) (st Status, ti int) {
	for {
		var retry bool
		st, retry, ti = b.tryPut(sh, p, key, data, count)
		if !retry {
			return st, ti
		}
		count = false
		// Algorithm 1, line 7: the node is out of frames. Ephemeral pages
		// are sacrificed first, as in Xen, before failing the put. Each
		// eviction frees exactly one frame, so the loop makes progress
		// even when concurrent puts race for it.
		if !b.evictOldest() {
			return ETmem, ti
		}
	}
}

// tryPut performs one put attempt under the shard lock.
func (b *Backend) tryPut(sh *shard, p *Pool, key Key, data []byte, count bool) (st Status, retry bool, ti int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return b.tryPutLocked(sh, p, key, data, count)
}

// tryPutLocked is tryPut's body; the caller holds sh.mu (the batch path
// holds it across a whole run of same-stripe keys). count makes the
// attempt count the put in puts_total. retry is true when the attempt
// failed only for want of a free frame. ti is the tier a lower-tier copy
// of key is tracked in, or -1: on a fresh local insert the tracking entry
// is consumed here, under the lock, and the caller supersedes the tier
// copy; on E_TMEM it stays, and the tier walk re-offers the page there
// first.
func (b *Backend) tryPutLocked(sh *shard, p *Pool, key Key, data []byte, count bool) (st Status, retry bool, ti int) {
	c := &p.acct.counts[sh.idx]
	if count {
		c.putsTotal++
	}
	if p.dead.Load() {
		return EInval, false, -1
	}

	// Duplicate put: replace contents, no capacity change.
	e := sh.ix.Get(key)
	ti = -1
	if e != nil && e.tier >= 0 {
		ti = int(e.tier)
	}
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
		c.putsSucc++
		return STmem, false, -1
	}

	// Algorithm 1, line 5: target enforcement. A VM at its target is
	// refused on one load. Otherwise the page is reserved with an atomic
	// increment, rolled back on overshoot — a plain check-then-act would
	// let concurrent puts on different shards jointly exceed the target.
	// Equivalent to the "used >= target" check when serial.
	a := p.acct
	if mem.Pages(a.tmemUsed.Load()) >= a.target() {
		return ETmem, false, ti
	}
	if mem.Pages(a.tmemUsed.Add(1)) > a.target() {
		a.tmemUsed.Add(-1)
		return ETmem, false, ti
	}
	if !b.allocFrame() {
		a.tmemUsed.Add(-1)
		return ETmem, true, ti
	}
	h, err := sh.store.Save(data)
	if err != nil {
		b.freePages.Add(1)
		a.tmemUsed.Add(-1)
		return EInval, false, -1
	}
	// A key tracked in a lower tier turns local in place: its entry is the
	// tracking record, consumed here.
	if e == nil {
		e = sh.insert(key)
	}
	e.pool, e.handle, e.tier = p, h, tierLocal
	p.pages.Add(1)
	if p.kind == Ephemeral {
		sh.lruPush(e, b.lruClock.Add(1))
	}
	c.putsSucc++
	return STmem, false, ti
}

// Get copies the page stored under key into dst (which may be nil when the
// caller only cares about presence). Ephemeral hits are always destructive
// (Xen semantics); persistent hits leave the page in place — the guest
// issues an explicit FlushPage when it invalidates the swap slot — unless
// the pool has exclusive gets (NewExclusivePool): then a hit also flushes
// the page, as Get followed by FlushPage would, in the get's own critical
// section.
//
// With tiers attached, a local miss on a key whose copy was shipped to a
// lower tier is served from that tier (and counted as a hit: tmem served
// the page, wherever it sat).
func (b *Backend) Get(key Key, dst []byte) Status {
	p := b.pool(key.Pool)
	if p == nil {
		return EInval
	}
	sh := b.shardFor(key)
	sh.mu.Lock()
	st, ti := b.getLocked(sh, p, key, dst)
	sh.mu.Unlock()
	if ti < 0 {
		return st
	}
	return b.tierAnswered(sh, p, key, b.tiers[ti], b.tiers[ti].Get(key, dst))
}

// getLocked is the part of a get under sh.mu: it counts the get and
// serves a local hit. For a key tracked in a lower tier it returns that
// tier's index, for the caller to ask once the lock is released; an
// exclusive get stops tracking the key here.
func (b *Backend) getLocked(sh *shard, p *Pool, key Key, dst []byte) (st Status, ti int) {
	c := &p.acct.counts[sh.idx]
	c.getsTotal++
	e := sh.ix.Get(key)
	switch {
	case e == nil:
		return ETmem, -1
	case e.tier != tierLocal:
		ti = int(e.tier)
		if p.exclusive {
			sh.remove(e)
		}
		return ETmem, ti
	}
	if dst != nil {
		if err := sh.store.Load(e.handle, dst); err != nil {
			return EInval, -1
		}
	}
	c.getsHit++
	if p.exclusive {
		c.flushes++
	}
	if p.kind == Ephemeral || p.exclusive {
		b.dropEntry(sh, e)
	}
	return STmem, -1
}

// tierAnswered settles a get of a key tracked in tier t with the tier's
// answer st. A hit counts (tmem served the page, wherever it sat); being
// destructive for an ephemeral page, it ends the tracking, and an
// exclusive get, which already ended it, flushes the tier's copy. A miss —
// an ephemeral drop on the peer, or the tier went down — ends the tracking
// too.
func (b *Backend) tierAnswered(sh *shard, p *Pool, key Key, t Tier, st Status) Status {
	if st != STmem && p.exclusive {
		return ETmem // a tracking entry there now is a later put's
	}
	flushed := st == STmem && p.exclusive && t.FlushPage(key) == STmem
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st != STmem {
		sh.dropRemoteLocked(key)
		return ETmem
	}
	c := &p.acct.counts[sh.idx]
	c.getsHit++
	if flushed {
		c.flushes++
	}
	if p.kind == Ephemeral {
		sh.dropRemoteLocked(key)
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
	return sh.ix.Get(key) != nil
}

// FlushPage invalidates a single page (paper Algorithm 1 FLUSH path:
// deallocate, tmem_used--). Flushing an absent page returns ETmem, which
// guests treat as harmless. A page whose live copy sits in a lower tier is
// flushed there.
func (b *Backend) FlushPage(key Key) Status {
	p := b.pool(key.Pool)
	if p == nil {
		return EInval
	}
	sh := b.shardFor(key)
	c := &p.acct.counts[sh.idx]
	sh.mu.Lock()
	e := sh.ix.Get(key)
	if e == nil {
		sh.mu.Unlock()
		return ETmem
	}
	ti := e.tier
	b.dropEntry(sh, e)
	if ti < 0 {
		c.flushes++
		sh.mu.Unlock()
		return STmem
	}
	sh.mu.Unlock()
	if b.tiers[ti].FlushPage(key) != STmem {
		return ETmem
	}
	sh.mu.Lock()
	c.flushes++
	sh.mu.Unlock()
	return STmem
}

// FlushObject invalidates every page of an object, returning the number of
// pages freed. The object's pages spread across shards, so every stripe is
// visited (object flushes are rare next to page operations); pages tracked
// in lower tiers are flushed there with one object flush per involved tier,
// which reports what it actually freed.
func (b *Backend) FlushObject(pool PoolID, object ObjectID) (mem.Pages, Status) {
	p := b.pool(pool)
	if p == nil {
		return 0, EInval
	}
	n, tracked := b.sweepObject(p, object)
	var freed mem.Pages
	for ti, cnt := range tracked {
		if cnt == 0 {
			continue
		}
		if m, st := b.tiers[ti].FlushObject(pool, object); st == STmem {
			freed += m
		}
	}
	if freed > 0 {
		// The tiers' pages belong to no stripe; any share of the
		// counters will do, as every reader sums them.
		sh := b.shards[0]
		sh.mu.Lock()
		p.acct.counts[sh.idx].flushes += uint64(freed)
		sh.mu.Unlock()
	}
	if n += freed; n == 0 {
		return 0, ETmem
	}
	return n, STmem
}

// sweepObject sweeps an object of pool p out of every shard's index and
// counts its locally held pages as flushed there; n counts those pages,
// tracked[i] the pages that were tracked in tier i.
func (b *Backend) sweepObject(p *Pool, object ObjectID) (n mem.Pages, tracked []mem.Pages) {
	tracked = make([]mem.Pages, len(b.tiers))
	for _, sh := range b.shards {
		sh.mu.Lock()
		local := n
		for k, e := range sh.ix.All {
			if k.Pool != p.id || k.Object != object {
				continue
			}
			if e.tier == tierLocal {
				n++
			} else {
				tracked[e.tier]++
			}
			b.dropEntry(sh, e)
		}
		p.acct.counts[sh.idx].flushes += uint64(n - local)
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
		if err := sh.ix.Check(); err != nil {
			return err
		}
		for key, e := range sh.ix.All {
			switch {
			case e.key() != key || sh.ix.Get(key) != e || b.shardFor(key) != sh:
				return fmt.Errorf("tmem: page %v is in a leaf but the index does not find it", key)
			case b.pool(key.Pool) != e.pool:
				return fmt.Errorf("tmem: shard holds entries of unknown pool %d", key.Pool)
			case e.tier == tierLocal:
				entryPages[key.Pool]++
			case int(e.tier) >= len(b.tiers):
				return fmt.Errorf("tmem: page %v tracked in nonexistent tier %d", key, e.tier)
			case e.handle != NoHandle || e.prev != nil:
				return fmt.Errorf("tmem: page %v tracked in tier %d still holds local state", key, e.tier)
			}
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
		var c vmCounts
		for i := range a.counts {
			c.add(&a.counts[i])
		}
		if c.putsSucc > c.putsTotal {
			return fmt.Errorf("tmem: vm %d puts_succ %d > puts_total %d", a.id, c.putsSucc, c.putsTotal)
		}
		if c.getsHit > c.getsTotal {
			return fmt.Errorf("tmem: vm %d gets_hit %d > gets_total %d", a.id, c.getsHit, c.getsTotal)
		}
	}
	return nil
}
