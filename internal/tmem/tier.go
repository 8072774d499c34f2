package tmem

import (
	"sync"
	"sync/atomic"

	"smartmem/internal/mem"
)

// This file implements the tiered tmem hierarchy: the local lock-striped
// store is tier 0, and Backend.AttachTier stacks further tiers below it.
// The canonical tier 1 is RemoteTier — RAMster-style remote tmem, where a
// node whose local pool is exhausted ships overflow pages to a peer node's
// store instead of swapping to disk (Magenheimer's tmem/RAMster lineage,
// paper §II). The final fallback remains the guest's virtual disk: a put
// rejected by every tier returns E_TMEM and the guest swaps.
//
// Tier dispatch rules (Backend.offer is the one walk; Put hands it a run of
// one, PutBatch every page its stripes refused):
//
//   - A put is offered to the tiers only after the local store rejects it
//     with E_TMEM (over target or out of frames). A key already tracked in
//     a tier is re-offered there first (the tier replaces its contents in
//     place); everything else walks the stack top down, skipping the tier
//     that just refused it. The first tier accepting the page turns the
//     guest-visible status back into S_TMEM.
//   - Each shard tracks which of its keys live in a lower tier (under the
//     existing stripe lock — the tier stack adds no new global locks), so
//     gets and flushes only pay a tier round trip for keys that actually
//     overflowed.
//   - The local failure still shows up in the MemStats sample (puts_succ
//     does not count tier-absorbed puts): policies keep seeing the pressure
//     that caused the overflow. Remote tmem is a relief valve, not extra
//     local capacity.

// Tier is one level of the tmem page hierarchy below the local striped
// store. Implementations must be safe for concurrent use; Status results
// follow the hypervisor conventions (STmem success, ETmem "cannot serve",
// EInval malformed).
type Tier interface {
	// Name identifies the tier in reports ("remote(n1)", "kvd:host").
	Name() string
	// Put offers an overflow page. kind is the owning pool's kind, which
	// the tier mirrors on its backing store (a persistent page must stay
	// retrievable until flushed; an ephemeral one may be dropped).
	Put(key Key, kind PoolKind, data []byte) Status
	// Get retrieves a page previously accepted by Put, copying it into dst
	// (which may be nil). Ephemeral hits are destructive, mirroring the
	// local store.
	Get(key Key, dst []byte) Status
	// PutBatch offers a run of overflow pages in one call — and, for a
	// wire-backed tier, one round trip; kinds[i] is the owning pool's kind
	// and sts receives one status per key.
	PutBatch(keys []Key, kinds []PoolKind, datas [][]byte, sts []Status)
	// GetBatch retrieves a run of pages previously accepted; dsts may be nil
	// or hold per-key buffers (nil entries mean presence only).
	GetBatch(keys []Key, dsts [][]byte, sts []Status)
	// FlushPage invalidates a single page.
	FlushPage(key Key) Status
	// FlushObject invalidates every page of an object, reporting how many
	// pages the tier actually freed (an ephemeral-backed tier may hold
	// fewer than the owner tracked).
	FlushObject(pool PoolID, object ObjectID) (mem.Pages, Status)
	// DropPool releases everything held for a local pool (pool destruction
	// or VM shutdown).
	DropPool(pool PoolID)
	// Stats returns cumulative operation counters.
	Stats() TierStats
}

// Deprecated: BatchTier is Tier, which has the batch methods.
type BatchTier = Tier

// TierStats are a tier's cumulative operation counters.
type TierStats struct {
	Puts          uint64 // overflow puts offered
	PutsOK        uint64 // overflow puts accepted
	Gets          uint64 // gets forwarded
	GetsHit       uint64 // gets served
	PageFlushes   uint64 // page flushes forwarded
	ObjectFlushes uint64 // object flushes forwarded
	Errors        uint64 // transport errors (the tier disables itself)
}

// Add folds o into s (cluster aggregation).
func (s *TierStats) Add(o TierStats) {
	s.Puts += o.Puts
	s.PutsOK += o.PutsOK
	s.Gets += o.Gets
	s.GetsHit += o.GetsHit
	s.PageFlushes += o.PageFlushes
	s.ObjectFlushes += o.ObjectFlushes
	s.Errors += o.Errors
}

// TierCounters is the atomic counter block behind a tier's TierStats,
// counted lock-free on the tier's data path.
type TierCounters struct {
	Puts, PutsOK, Gets, GetsHit atomic.Uint64
	PageFlushes, ObjectFlushes  atomic.Uint64
	Errors                      atomic.Uint64
}

// Stats snapshots the counters.
func (c *TierCounters) Stats() TierStats {
	return TierStats{
		Puts:          c.Puts.Load(),
		PutsOK:        c.PutsOK.Load(),
		Gets:          c.Gets.Load(),
		GetsHit:       c.GetsHit.Load(),
		PageFlushes:   c.PageFlushes.Load(),
		ObjectFlushes: c.ObjectFlushes.Load(),
		Errors:        c.Errors.Load(),
	}
}

// PageService is the put/get/flush surface a RemoteTier drives: the
// key–value operations of the kvstore wire protocol, minus the transport.
// Both kvstore.Client (a real net.Conn to a smartmem-kvd daemon, one frame
// per batch) and Loopback (a direct in-process call into a peer backend,
// the deterministic simulator transport) satisfy it. Implementations must
// be safe for concurrent use when the owning backend serves concurrent
// traffic.
type PageService interface {
	NewPool(vm VMID, kind PoolKind) (PoolID, error)
	Put(key Key, data []byte) (Status, error)
	// Get materializes the page; GetInto copies it into dst instead (nil
	// when only presence matters), which is what RemoteTier calls.
	Get(key Key) (Status, []byte, error)
	GetInto(key Key, dst []byte) (Status, error)
	FlushPage(key Key) (Status, error)
	// FlushObjectCount also reports how many pages the flush freed, which
	// keeps the owner's accounting exact when the peer dropped ephemeral
	// pages beforehand.
	FlushObjectCount(pool PoolID, object ObjectID) (mem.Pages, Status, error)
	DestroyPool(pool PoolID) (Status, error)
	PutBatch(keys []Key, datas [][]byte, sts []Status) error
	GetBatch(keys []Key, dsts [][]byte, sts []Status) error
}

// Deprecated: BatchPageService is PageService, which has the batch methods.
type BatchPageService = PageService

// RemoteTier ships overflow pages to a peer tmem store over a PageService.
// Pages are stored on the peer under pools owned by a single "remote guest"
// identity (owner), one peer pool per local pool, so the peer's accounting
// and policies see the remote traffic as one more VM. A transport error
// permanently disables the tier (counted in Stats().Errors): puts degrade
// to the next tier or the guest's disk, exactly as if the peer vanished.
type RemoteTier struct {
	name  string
	svc   PageService
	owner VMID

	// pools maps local pool id → peer pool id. The map is only touched on
	// pool creation/destruction and on the overflow path — never by the
	// local striped hot path.
	mu    sync.RWMutex
	pools map[PoolID]PoolID

	down   atomic.Bool
	counts TierCounters
}

// NewRemoteTier creates a tier shipping overflow pages to svc. owner is the
// VM identity the peer accounts the remote pages under; give every source
// node a distinct owner so a peer serving several nodes can tell their
// footprints apart.
func NewRemoteTier(name string, svc PageService, owner VMID) *RemoteTier {
	if svc == nil {
		panic("tmem: nil page service")
	}
	return &RemoteTier{name: name, svc: svc, owner: owner, pools: make(map[PoolID]PoolID)}
}

// Name implements Tier.
func (r *RemoteTier) Name() string { return r.name }

// Stats implements Tier.
func (r *RemoteTier) Stats() TierStats { return r.counts.Stats() }

// fail records a transport error and permanently disables the tier.
func (r *RemoteTier) fail() Status {
	r.counts.Errors.Add(1)
	r.down.Store(true)
	return ETmem
}

// peerPool resolves the peer pool backing a local pool, if one exists.
func (r *RemoteTier) peerPool(local PoolID) (PoolID, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.pools[local]
	return p, ok
}

// ensurePool resolves or creates the peer pool backing a local pool.
func (r *RemoteTier) ensurePool(local PoolID, kind PoolKind) (PoolID, bool) {
	if p, ok := r.peerPool(local); ok {
		return p, true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.pools[local]; ok {
		return p, true
	}
	p, err := r.svc.NewPool(r.owner, kind)
	if err != nil {
		r.fail()
		return InvalidPool, false
	}
	r.pools[local] = p
	return p, true
}

// Put implements Tier.
func (r *RemoteTier) Put(key Key, kind PoolKind, data []byte) Status {
	if r.down.Load() {
		return ETmem
	}
	r.counts.Puts.Add(1)
	rp, ok := r.ensurePool(key.Pool, kind)
	if !ok {
		return ETmem
	}
	st, err := r.svc.Put(Key{Pool: rp, Object: key.Object, Index: key.Index}, data)
	if err != nil {
		return r.fail()
	}
	if st == STmem {
		r.counts.PutsOK.Add(1)
	}
	return st
}

// Get implements Tier.
func (r *RemoteTier) Get(key Key, dst []byte) Status {
	if r.down.Load() {
		return ETmem
	}
	rp, ok := r.peerPool(key.Pool)
	if !ok {
		return ETmem
	}
	r.counts.Gets.Add(1)
	st, err := r.svc.GetInto(Key{Pool: rp, Object: key.Object, Index: key.Index}, dst)
	if err != nil {
		return r.fail()
	}
	if st == STmem {
		r.counts.GetsHit.Add(1)
	}
	return st
}

// keyScratch recycles the peer-key translation buffers of the batch paths.
var keyScratch = sync.Pool{New: func() any { return new(remoteBatchScratch) }}

type remoteBatchScratch struct {
	keys []Key
	idx  []int32
	dsts [][]byte
	sts  []Status
}

// PutBatch implements Tier: the run is translated to peer keys and shipped
// through the service's batch surface in one round trip.
func (r *RemoteTier) PutBatch(keys []Key, kinds []PoolKind, datas [][]byte, sts []Status) {
	refuseAll := func() {
		for i := range sts {
			sts[i] = ETmem
		}
	}
	if r.down.Load() {
		refuseAll()
		return
	}
	r.counts.Puts.Add(uint64(len(keys)))
	sc := keyScratch.Get().(*remoteBatchScratch)
	defer keyScratch.Put(sc)
	sc.keys = sc.keys[:0]
	for i, k := range keys {
		rp, ok := r.ensurePool(k.Pool, kinds[i])
		if !ok {
			// ensurePool failed => the tier is down; nothing can land.
			refuseAll()
			return
		}
		sc.keys = append(sc.keys, Key{Pool: rp, Object: k.Object, Index: k.Index})
	}
	if err := r.svc.PutBatch(sc.keys, datas, sts); err != nil {
		r.fail()
		refuseAll()
		return
	}
	for _, st := range sts {
		if st == STmem {
			r.counts.PutsOK.Add(1)
		}
	}
}

// GetBatch implements Tier.
func (r *RemoteTier) GetBatch(keys []Key, dsts [][]byte, sts []Status) {
	for i := range sts {
		sts[i] = ETmem
	}
	if r.down.Load() {
		return
	}
	sc := keyScratch.Get().(*remoteBatchScratch)
	defer keyScratch.Put(sc)
	// Registered after Put, so it runs first: never park caller page
	// buffers in the pool, whichever path returns.
	defer func() { clear(sc.dsts) }()
	sc.keys, sc.idx, sc.dsts = sc.keys[:0], sc.idx[:0], sc.dsts[:0]
	for i, k := range keys {
		rp, ok := r.peerPool(k.Pool)
		if !ok {
			continue // never overflowed this pool: miss without a wire trip
		}
		sc.keys = append(sc.keys, Key{Pool: rp, Object: k.Object, Index: k.Index})
		sc.idx = append(sc.idx, int32(i))
		if dsts == nil {
			sc.dsts = append(sc.dsts, nil)
		} else {
			sc.dsts = append(sc.dsts, dsts[i])
		}
	}
	if len(sc.keys) == 0 {
		return
	}
	r.counts.Gets.Add(uint64(len(sc.keys)))
	// Default every slot to ETmem (the Status zero value is STmem, so a
	// transport that under-writes must read as a miss, not a false hit).
	sc.sts = sc.sts[:0]
	for range sc.keys {
		sc.sts = append(sc.sts, ETmem)
	}
	if err := r.svc.GetBatch(sc.keys, sc.dsts, sc.sts); err != nil {
		r.fail()
		return
	}
	for j, i := range sc.idx {
		if sc.sts[j] == STmem {
			r.counts.GetsHit.Add(1)
		}
		sts[i] = sc.sts[j]
	}
}

// FlushPage implements Tier.
func (r *RemoteTier) FlushPage(key Key) Status {
	if r.down.Load() {
		return ETmem
	}
	rp, ok := r.peerPool(key.Pool)
	if !ok {
		return ETmem
	}
	r.counts.PageFlushes.Add(1)
	st, err := r.svc.FlushPage(Key{Pool: rp, Object: key.Object, Index: key.Index})
	if err != nil {
		return r.fail()
	}
	return st
}

// FlushObject implements Tier.
func (r *RemoteTier) FlushObject(pool PoolID, object ObjectID) (mem.Pages, Status) {
	if r.down.Load() {
		return 0, ETmem
	}
	rp, ok := r.peerPool(pool)
	if !ok {
		return 0, ETmem
	}
	r.counts.ObjectFlushes.Add(1)
	n, st, err := r.svc.FlushObjectCount(rp, object)
	if err != nil {
		return 0, r.fail()
	}
	return n, st
}

// DropPool implements Tier.
func (r *RemoteTier) DropPool(pool PoolID) {
	r.mu.Lock()
	rp, ok := r.pools[pool]
	delete(r.pools, pool)
	r.mu.Unlock()
	if !ok || r.down.Load() {
		return
	}
	if _, err := r.svc.DestroyPool(rp); err != nil {
		r.fail()
	}
}

// Loopback adapts a peer backend's local store to PageService for
// in-process clusters: every operation is a direct, synchronous call into
// the peer's striped store, which keeps the simulator deterministic. The
// pools it creates are peer pools, whose pages never leave the peer's local
// store, so mutually-wired nodes cannot bounce one overflow page back and
// forth.
type Loopback struct {
	b *Backend
}

// NewLoopback wraps a peer backend.
func NewLoopback(b *Backend) *Loopback {
	if b == nil {
		panic("tmem: nil backend")
	}
	return &Loopback{b: b}
}

// NewPool implements PageService with a peer pool, whose pages never
// leave the peer's local store.
func (l *Loopback) NewPool(vm VMID, kind PoolKind) (PoolID, error) {
	return l.b.newPool(vm, kind, false, true), nil
}

// Put implements PageService.
func (l *Loopback) Put(key Key, data []byte) (Status, error) {
	return l.b.Put(key, data), nil
}

// Get implements PageService, materializing the page payload.
func (l *Loopback) Get(key Key) (Status, []byte, error) {
	buf := make([]byte, l.b.PageSize())
	if st, _ := l.GetInto(key, buf); st != STmem {
		return st, nil, nil
	}
	return STmem, buf, nil
}

// GetInto implements PageService: the caller's buffer goes straight to the
// peer's store, so a nil dst (presence-only, the simulator's meta-store
// path) moves zero bytes and a data-store cluster still gets real contents.
func (l *Loopback) GetInto(key Key, dst []byte) (Status, error) {
	return l.b.Get(key, dst), nil
}

// PutBatch implements PageService: the peer's stripe-grouped batch path
// absorbs the whole overflow run with one lock acquisition per stripe.
func (l *Loopback) PutBatch(keys []Key, datas [][]byte, sts []Status) error {
	l.b.PutBatch(keys, datas, sts)
	return nil
}

// GetBatch implements PageService.
func (l *Loopback) GetBatch(keys []Key, dsts [][]byte, sts []Status) error {
	l.b.GetBatch(keys, dsts, sts)
	return nil
}

// FlushPage implements PageService.
func (l *Loopback) FlushPage(key Key) (Status, error) {
	return l.b.FlushPage(key), nil
}

// FlushObjectCount implements PageService.
func (l *Loopback) FlushObjectCount(pool PoolID, object ObjectID) (mem.Pages, Status, error) {
	n, st := l.b.FlushObject(pool, object)
	return n, st, nil
}

// DestroyPool implements PageService.
func (l *Loopback) DestroyPool(pool PoolID) (Status, error) {
	if err := l.b.DestroyPool(pool); err != nil {
		return EInval, nil
	}
	return STmem, nil
}

// Compile-time interface checks.
var (
	_ Tier        = (*RemoteTier)(nil)
	_ PageService = (*Loopback)(nil)
)
