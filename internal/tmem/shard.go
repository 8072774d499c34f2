package tmem

import "sync"

// This file holds the lock-striping machinery of the sharded backend: the
// shard, one stripe of the key index, page storage and ephemeral LRU.
// Backend methods that coordinate across stripes live in backend.go.
//
// Lock ordering, outermost first:
//
//	poolMu -> shard.mu (ascending index when several) -> vmMu
//
// The hot path (Put/Get/FlushPage) holds exactly one shard.mu and nothing
// else: pools resolve through an atomically published snapshot and frames
// are a single atomic counter. No path ever holds two shard locks except
// CheckInvariants, which acquires them in index order.

// Entry states (entry.tier). A key is in its shard's index at most once, so
// a page is held locally or tracked in a lower tier, never both.
const (
	tierFree  = -2 // on the shard's free list, not in the index
	tierLocal = -1 // page held by the shard's own store
	// >= 0: the live copy sits in the backend's lower tier of that index
)

const (
	entShift = 8
	entChunk = 1 << entShift // entries per slab chunk (18 KiB)
	entMask  = entChunk - 1

	minSlots = 64 // first table allocation; doubles from here
)

// entry is one indexed tmem page: stored locally, or tracked as living in a
// lower tier (then pool is set, handle is NoHandle and it is off the LRU).
type entry struct {
	key    Key
	pool   *Pool
	handle Handle
	// Ephemeral entries are linked into their shard's eviction LRU; stamp
	// is the global LRU clock value at link time (cross-shard age order).
	// The free list chains through next.
	stamp      uint64
	prev, next *entry
	self       uint32 // slab index
	tier       int32
}

// shard is one lock stripe of the store: a partition of the key index, its
// own page store instance and one segment of the ephemeral eviction LRU.
//
// The index is one open-addressed table over the full Key — linear probing
// on the upper half of Key.hash() (the lower half picks the stripe), with
// backward-shift deletion, so there are no tombstones and a steady
// put/flush cycle never degrades it. A slot packs that 32-bit hash half
// with the entry's slab index + 1 (0 = empty): probes compare hashes
// without touching entries, and growing rehashes from the slots alone.
// Entries live in fixed-size chunks allocated on demand that never move,
// so LRU links and callers hold plain pointers across inserts. Neither the
// table nor the slab ever shrinks.
type shard struct {
	mu    sync.Mutex
	store PageStore

	slots  []uint64
	live   int // occupied slots
	chunks []*[entChunk]entry
	used   uint32 // slab high-water mark: entries [0, used) have been handed out
	free   *entry

	// Ephemeral LRU segment: lru.next is the shard's oldest entry. Entries
	// carry a stamp from the backend's global LRU clock so cross-shard
	// victim selection can find the node-wide oldest page.
	lru entry // sentinel
}

func newShard(store PageStore) *shard {
	sh := &shard{store: store}
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

// tag is the half of the key hash the table probes and stores.
func (k Key) tag() uint32 { return uint32(k.hash() >> 32) }

// lookup returns the entry indexed under key — local or tier-tracked — or
// nil. Caller holds mu.
func (sh *shard) lookup(key Key) *entry {
	if sh.live == 0 {
		return nil
	}
	tag, mask := key.tag(), uint32(len(sh.slots)-1)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := sh.slots[i]
		if s == 0 {
			return nil
		}
		if uint32(s>>32) == tag {
			n := uint32(s) - 1
			if e := &sh.chunks[n>>entShift][n&entMask]; e.key == key {
				return e
			}
		}
	}
}

// insert indexes key, which must be absent, and returns its entry with only
// key and self set; the caller fills in pool, handle and tier. Caller holds
// mu.
func (sh *shard) insert(key Key) *entry {
	if (sh.live+1)*4 > len(sh.slots)*3 {
		sh.grow()
	}
	e := sh.free
	if e != nil {
		sh.free, e.next = e.next, nil
	} else {
		if int(sh.used>>entShift) == len(sh.chunks) {
			sh.chunks = append(sh.chunks, new([entChunk]entry))
		}
		e = &sh.chunks[sh.used>>entShift][sh.used&entMask]
		e.self = sh.used
		sh.used++
	}
	e.key = key
	tag, mask := key.tag(), uint32(len(sh.slots)-1)
	i := tag & mask
	for sh.slots[i] != 0 {
		i = (i + 1) & mask
	}
	sh.slots[i] = uint64(tag)<<32 | uint64(e.self+1)
	sh.live++
	return e
}

// grow doubles the table and re-places every slot by its stored hash.
func (sh *shard) grow() {
	old := sh.slots
	sh.slots = make([]uint64, max(2*len(old), minSlots))
	mask := uint32(len(sh.slots) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := uint32(s>>32) & mask
		for sh.slots[i] != 0 {
			i = (i + 1) & mask
		}
		sh.slots[i] = s
	}
}

// remove unindexes e and returns it to the free list. The caller holds mu,
// has already taken e off the LRU, and must not touch e afterwards.
func (sh *shard) remove(e *entry) {
	mask := uint32(len(sh.slots) - 1)
	hole := e.key.tag() & mask
	for uint32(sh.slots[hole]) != e.self+1 {
		hole = (hole + 1) & mask
	}
	// Backward shift: pull every later member of the probe run whose home
	// slot lies at or before the hole back into it.
	for i := hole; ; {
		i = (i + 1) & mask
		s := sh.slots[i]
		if s == 0 {
			break
		}
		if (i-uint32(s>>32))&mask >= (i-hole)&mask {
			sh.slots[hole] = s
			hole = i
		}
	}
	sh.slots[hole] = 0
	sh.live--
	*e = entry{self: e.self, tier: tierFree, handle: NoHandle, next: sh.free}
	sh.free = e
}

// each ranges over every indexed entry in slab order (for e := range
// sh.each). The loop body may remove the entry it is handed. Caller holds mu.
func (sh *shard) each(yield func(*entry) bool) {
	for n := uint32(0); n < sh.used; n++ {
		if e := &sh.chunks[n>>entShift][n&entMask]; e.tier != tierFree && !yield(e) {
			return
		}
	}
}

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
	e := sh.lookup(key)
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
	if e := sh.lookup(key); e != nil && e.tier >= 0 {
		return int(e.tier)
	}
	return -1
}

// dropRemote stops tracking key in a lower tier, if it was.
func (sh *shard) dropRemote(key Key) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.lookup(key); e != nil && e.tier >= 0 {
		sh.remove(e)
	}
}
