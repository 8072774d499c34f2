package tmem

import (
	"fmt"
	"sync"
)

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
	tierFree  = -2 // no page under this key: the slot of its leaf is empty
	tierLocal = -1 // page held by the shard's own store
	// >= 0: the live copy sits in the backend's lower tier of that index
)

// A run is 8 pages. A sweep over consecutive keys misses the cache once
// per run, and a key that shares its run with no other costs a whole leaf:
// 8 entries, 480 bytes, under an eighth of the page it indexes. Longer
// runs cut the first cost and multiply the second, and put more of a
// server's hot keys behind one stripe lock.
const (
	runShift = 3
	runLen   = 1 << runShift // pages per run: the entries of one leaf
	runMask  = runLen - 1

	leafChunk = 32 // leaves allocated at once: 256 pages' entries (15 KiB)
	minSlots  = 16 // first table allocation; doubles from here
)

// entry is one page slot of a leaf: empty (tierFree), a page stored locally,
// or a page tracked as living in a lower tier (then pool is set, handle is
// NoHandle and it is off the LRU).
type entry struct {
	pool   *Pool
	handle Handle
	// Ephemeral entries are linked into their shard's eviction LRU; stamp
	// is the global LRU clock value at link time (cross-shard age order).
	stamp      uint64
	prev, next *entry
	leaf       *leaf
	tier       int32
	off        uint8 // the entry's place in its leaf: Index & runMask
}

// key is the full key the entry is indexed under.
func (e *entry) key() Key {
	return Key{Pool: e.leaf.pool, Object: e.leaf.object, Index: e.leaf.base | PageIndex(e.off)}
}

// leaf holds one run: the runLen consecutive page indices of one (pool,
// object) starting at base, each entry at its index's offset. Leaves are
// allocated leafChunk at a time and never move; while a leaf has no live
// entry it waits on the shard's free list for the next run.
type leaf struct {
	pool   PoolID
	object ObjectID
	base   PageIndex // Index &^ runMask of every key in the run
	tag    uint32    // the run hash's upper half: the table probes on it
	live   int32     // entries not tierFree
	next   *leaf     // free-list link
	ents   [runLen]entry
}

// slot is one table cell: a leaf in the table, or empty (lf == nil).
type slot struct {
	tag uint32
	lf  *leaf
}

// shard is one lock stripe of the store: a partition of the run index, its
// own page store instance, one segment of the ephemeral eviction LRU, and
// its share of every VM's operation counters (vmAccount.counts[idx]).
//
// The index is one open-addressed table of runs: one slot per (pool,
// object, index>>runShift) that has a live entry, probed linearly on the
// upper half of Key.hash() (the lower half picks the stripe), with
// backward-shift deletion, so there are no tombstones. A slot carries that
// 32-bit hash half beside its leaf, so a probe compares tags without
// touching leaves. Keys come in dense runs — a VM's consecutive swap
// slots, a file's consecutive pages — so the lookups of a run's sweep all
// land on one slot and one leaf, which stay in cache. Leaves never
// move, so LRU links and callers hold plain pointers across inserts; the
// table shifts back only when a leaf empties. Neither the table nor the
// leaf set ever shrinks.
type shard struct {
	mu    sync.Mutex
	idx   int // the stripe's index in Backend.shards and vmAccount.counts
	store PageStore

	slots  []slot
	runs   int                // occupied slots: leaves with live entries
	live   int                // indexed keys
	chunks []*[leafChunk]leaf // every leaf allocated, in allocation order
	free   *leaf

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

// run returns key's leaf, or nil when no key of its run is indexed. Caller
// holds mu.
func (sh *shard) run(key Key) *leaf {
	if sh.runs == 0 {
		return nil
	}
	tag, mask := uint32(key.hash()>>32), uint32(len(sh.slots)-1)
	base := key.Index &^ runMask
	for i := tag & mask; ; i = (i + 1) & mask {
		s := &sh.slots[i]
		if s.lf == nil {
			return nil
		}
		if s.tag == tag && s.lf.base == base && s.lf.object == key.Object && s.lf.pool == key.Pool {
			return s.lf
		}
	}
}

// lookup returns the entry indexed under key — local or tier-tracked — or
// nil. Caller holds mu.
func (sh *shard) lookup(key Key) *entry {
	if lf := sh.run(key); lf != nil {
		if e := &lf.ents[key.Index&runMask]; e.tier != tierFree {
			return e
		}
	}
	return nil
}

// insert indexes key, which must be absent, and returns its entry; the
// caller fills in pool, handle and tier. Caller holds mu.
func (sh *shard) insert(key Key) *entry {
	lf := sh.run(key)
	if lf == nil {
		lf = sh.addRun(key)
	}
	lf.live++
	sh.live++
	return &lf.ents[key.Index&runMask]
}

// addRun takes a leaf for key's run from the free list, refilled a chunk
// at a time, and enters it in the table.
func (sh *shard) addRun(key Key) *leaf {
	if (sh.runs+1)*4 > len(sh.slots)*3 {
		sh.grow()
	}
	if sh.free == nil {
		sh.addChunk()
	}
	lf := sh.free
	sh.free, lf.next = lf.next, nil
	lf.pool, lf.object, lf.base = key.Pool, key.Object, key.Index&^runMask
	lf.tag = uint32(key.hash() >> 32)
	mask := uint32(len(sh.slots) - 1)
	i := lf.tag & mask
	for sh.slots[i].lf != nil {
		i = (i + 1) & mask
	}
	sh.slots[i] = slot{lf.tag, lf}
	sh.runs++
	return lf
}

// addChunk allocates leafChunk empty leaves onto the free list, which must
// be empty, so they are taken in allocation order.
func (sh *shard) addChunk() {
	c := new([leafChunk]leaf)
	for i := len(c) - 1; i >= 0; i-- {
		lf := &c[i]
		for j := range lf.ents {
			lf.ents[j] = entry{leaf: lf, off: uint8(j), tier: tierFree, handle: NoHandle}
		}
		lf.next = sh.free
		sh.free = lf
	}
	sh.chunks = append(sh.chunks, c)
}

// grow doubles the table and re-places every slot by its stored tag.
func (sh *shard) grow() {
	old := sh.slots
	sh.slots = make([]slot, max(2*len(old), minSlots))
	mask := uint32(len(sh.slots) - 1)
	for _, s := range old {
		if s.lf == nil {
			continue
		}
		i := s.tag & mask
		for sh.slots[i].lf != nil {
			i = (i + 1) & mask
		}
		sh.slots[i] = s
	}
}

// remove unindexes e; the last entry of a run to go takes its leaf out of
// the table and onto the free list. The caller holds mu and has already
// taken e off the LRU.
func (sh *shard) remove(e *entry) {
	lf := e.leaf
	*e = entry{leaf: lf, off: e.off, tier: tierFree, handle: NoHandle}
	sh.live--
	if lf.live--; lf.live > 0 {
		return
	}
	mask := uint32(len(sh.slots) - 1)
	hole := lf.tag & mask
	for sh.slots[hole].lf != lf {
		hole = (hole + 1) & mask
	}
	// Backward shift: pull every later member of the probe run whose home
	// slot lies at or before the hole back into it.
	for i := hole; ; {
		i = (i + 1) & mask
		s := sh.slots[i]
		if s.lf == nil {
			break
		}
		if (i-s.tag)&mask >= (i-hole)&mask {
			sh.slots[hole] = s
			hole = i
		}
	}
	sh.slots[hole] = slot{}
	sh.runs--
	lf.next = sh.free
	sh.free = lf
}

// each ranges over every indexed entry, leaf by leaf in allocation order
// and by index within a leaf (for e := range sh.each). The loop body may
// remove the entry it is handed. Caller holds mu.
func (sh *shard) each(yield func(*entry) bool) {
	for _, c := range sh.chunks {
		for j := range c {
			lf := &c[j]
			if lf.live == 0 {
				continue
			}
			for i := range lf.ents {
				if e := &lf.ents[i]; e.tier != tierFree && !yield(e) {
					return
				}
			}
		}
	}
}

// check verifies the index's structure: every live leaf sits in the table
// once, under its own tag, and counts its entries right; every other leaf
// is empty and on the free list. Caller holds mu.
func (sh *shard) check() error {
	inTable := 0
	for _, s := range sh.slots {
		if s.lf == nil {
			continue
		}
		inTable++
		if s.tag != s.lf.tag || s.lf.live == 0 {
			return fmt.Errorf("tmem: table slot of run %d/%d/%d has tag %#x (leaf %#x) and %d live entries",
				s.lf.pool, s.lf.object, s.lf.base, s.tag, s.lf.tag, s.lf.live)
		}
	}
	if inTable != sh.runs {
		return fmt.Errorf("tmem: table holds %d runs, counted %d", inTable, sh.runs)
	}
	free := 0
	for lf := sh.free; lf != nil; lf = lf.next {
		free++
	}
	keys, live := 0, 0
	for _, c := range sh.chunks {
		for j := range c {
			lf := &c[j]
			n := int32(0)
			for i := range lf.ents {
				if lf.ents[i].tier != tierFree {
					n++
				}
			}
			if n != lf.live {
				return fmt.Errorf("tmem: leaf of run %d/%d/%d counts %d live entries, holds %d", lf.pool, lf.object, lf.base, lf.live, n)
			}
			if n > 0 {
				live++
				keys += int(n)
			}
		}
	}
	if leaves := len(sh.chunks) * leafChunk; live != sh.runs || live+free != leaves {
		return fmt.Errorf("tmem: %d leaves: %d live, %d free, %d runs in the table", leaves, live, free, sh.runs)
	}
	if keys != sh.live {
		return fmt.Errorf("tmem: leaves hold %d keys, counted %d", keys, sh.live)
	}
	return nil
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
	sh.dropRemoteLocked(key)
}

// dropRemoteLocked is dropRemote for a caller holding mu.
func (sh *shard) dropRemoteLocked(key Key) {
	if e := sh.lookup(key); e != nil && e.tier >= 0 {
		sh.remove(e)
	}
}
