package tmem

import "sync"

// This file holds the lock-striping machinery of the sharded backend: the
// shard, one stripe of the run index, page storage and ephemeral LRU.
// Backend methods that coordinate across stripes live in backend.go.
//
// Lock ordering, outermost first:
//
//	sampleMu -> poolMu -> shard.mu (ascending index when several) -> vmMu
//
// The hot path (Put/Get/FlushPage) holds exactly one shard.mu and nothing
// else: pools resolve through an atomically published snapshot, frames
// are a single atomic counter, and an op's statistics are plain integers
// of its stripe, written in the critical section it holds anyway. No path
// ever holds two shard locks except CheckInvariants, which acquires them
// in index order.

// Entry states (entry.tier). A key has one entry, so a page is held
// locally or tracked in a lower tier, never both.
const (
	tierLocal = -1 // page held by the shard's own store
	// >= 0: the live copy sits in the backend's lower tier of that index
)

// entry is one page of a stripe's index: a page stored locally, or a page
// tracked as living in a lower tier (then pool is set, handle is NoHandle
// and it is off the LRU).
type entry struct {
	pool   *Pool
	handle Handle
	// Ephemeral entries are linked into their shard's eviction LRU; stamp
	// is the global LRU clock value at link time (cross-shard age order).
	stamp      uint64
	prev, next *entry
	// The entry is leaf.vals[off], so a drop does not probe the table.
	leaf *runLeaf[entry]
	off  uint8
	tier int32
}

// key is the full key the entry is indexed under.
func (e *entry) key() Key { return e.leaf.key(int(e.off)) }

// shard is one lock stripe of the store: a partition of the run index
// (RunIndex; Key.hash's lower half picks the stripe, so a whole run lives
// in one), its own page store instance, one segment of the ephemeral
// eviction LRU, and its share of every VM's operation counters
// (vmAccount.counts[idx]).
type shard struct {
	mu    sync.Mutex
	idx   int // the stripe's index in Backend.shards and vmAccount.counts
	store PageStore
	ix    RunIndex[entry]

	// Ephemeral LRU segment: lru.next is the shard's oldest entry. Entries
	// carry a stamp from the backend's global LRU clock so cross-shard
	// victim selection can find the node-wide oldest page.
	lru entry // sentinel
}

func newShard(idx int, store PageStore) *shard {
	sh := &shard{idx: idx, store: store}
	sh.lru.prev = &sh.lru
	sh.lru.next = &sh.lru
	return sh
}

// lruPush appends e as the shard's most-recently-used entry.
func (sh *shard) lruPush(e *entry, stamp uint64) {
	e.stamp = stamp
	e.prev = sh.lru.prev
	e.next = &sh.lru
	sh.lru.prev.next = e
	sh.lru.prev = e
}

func (sh *shard) lruRemove(e *entry) {
	if e.prev == nil {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// insert indexes key, which must be absent, and returns its entry; the
// caller fills in pool, handle and tier. Caller holds mu.
func (sh *shard) insert(key Key) *entry {
	lf, off, _ := sh.ix.insert(key)
	e := &lf.vals[off]
	e.leaf, e.off = lf, uint8(off)
	return e
}

// remove unindexes e. The caller holds mu and has already taken e off the
// LRU.
func (sh *shard) remove(e *entry) { sh.ix.removeAt(e.leaf, int(e.off)) }

// --- lower-tier page tracking ---

// noteRemoteIfFree records that key's live copy sits in tier ti — unless a
// concurrent put landed the key locally, or the pool died, between the
// caller's failed local attempt and now, in which case it reports false and
// records nothing (the caller then flushes its tier copy). Takes mu itself:
// it is called from the overflow path, after the local attempt's critical
// section ended.
func (sh *shard) noteRemoteIfFree(p *Pool, key Key, ti int) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p.dead.Load() {
		return false
	}
	e := sh.ix.Get(key)
	switch {
	case e == nil:
		e = sh.insert(key)
		e.pool, e.handle = p, NoHandle
	case e.tier == tierLocal:
		return false
	}
	e.tier = int32(ti)
	return true
}

// remoteTier returns the tier index key is tracked under, or -1 (for
// callers outside a critical section).
func (sh *shard) remoteTier(key Key) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.ix.Get(key); e != nil && e.tier >= 0 {
		return int(e.tier)
	}
	return -1
}

// dropRemote stops tracking key in a lower tier, if it was.
func (sh *shard) dropRemote(key Key) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.dropRemoteLocked(key)
}

// dropRemoteLocked is dropRemote for a caller holding mu.
func (sh *shard) dropRemoteLocked(key Key) {
	if e := sh.ix.Get(key); e != nil && e.tier >= 0 {
		sh.remove(e)
	}
}
