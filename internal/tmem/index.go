package tmem

import (
	"fmt"
	"math/bits"
)

// A run is 8 pages. A sweep over consecutive keys misses the cache once
// per run, and a key that shares its run with no other costs a whole leaf:
// 8 values and a 32-byte header — 480 bytes for a stripe's entry, 160 for
// the tiers' 16-byte values. Longer runs cut the first cost and multiply
// the second, and put more of a server's hot keys behind one stripe lock.
const (
	runShift = 3
	runLen   = 1 << runShift // pages per run: the values of one leaf
	runMask  = runLen - 1

	leafChunk = 32 // leaves allocated at once: 256 pages' values
	minSlots  = 16 // first table allocation; doubles from here
)

// RunIndex maps tmem keys to values of type V. It is the one keyed-page
// index of the repository: each stripe of the store, the compressed tier
// and the durable journal hold their pages in one.
//
// Keys come in dense runs — a VM's consecutive swap slots, a file's
// consecutive pages, kvd's Object = id>>6, Index = id&63 — so the index
// holds runs, not keys: one leaf per (pool, object, Index>>runShift) that
// holds a key, with the run's runLen values side by side at their index
// offsets and one bit per offset saying which hold a key, so V needs no
// spare "empty" value. The leaves sit in one open-addressed table, probed
// linearly on the upper half of Key.hash() (the lower half picks the
// store's stripe), with backward-shift deletion, so there are no
// tombstones. A slot carries that 32-bit hash half beside its leaf, so a
// probe compares tags without touching leaves, and the lookups of a run's
// sweep all land on one slot and one leaf, which stay in cache.
//
// Leaves are allocated leafChunk at a time and never move, so a *V stays
// valid until its key is removed and values may point at each other (the
// store's LRU links do). A leaf emptied by its run's last removal waits on
// a free list for the next new run, and only then does the table shift
// back. Neither the table nor the leaf set ever shrinks. The zero RunIndex
// is empty and ready for use; it is not safe for concurrent use.
type RunIndex[V any] struct {
	slots  []runSlot[V]
	runs   int                      // occupied slots: leaves holding keys
	live   int                      // keys held
	chunks []*[leafChunk]runLeaf[V] // every leaf allocated, in allocation order
	free   *runLeaf[V]
}

// runSlot is one table cell: a leaf in the table, or empty (lf == nil).
type runSlot[V any] struct {
	tag uint32
	lf  *runLeaf[V]
}

// runLeaf holds one run: the runLen consecutive page indices of one (pool,
// object) starting at base, each value at its index's offset.
type runLeaf[V any] struct {
	object ObjectID
	next   *runLeaf[V] // free-list link
	pool   PoolID
	base   PageIndex // Index &^ runMask of every key in the run
	tag    uint32    // the run hash's upper half: the table probes on it
	used   uint8     // bit i set: vals[i] holds a key
	vals   [runLen]V
}

// key is the key of the value at off.
func (lf *runLeaf[V]) key(off int) Key {
	return Key{Pool: lf.pool, Object: lf.object, Index: lf.base | PageIndex(off)}
}

// Len returns the number of keys held.
func (x *RunIndex[V]) Len() int { return x.live }

// run returns key's leaf, or nil when no key of its run is held.
func (x *RunIndex[V]) run(key Key) *runLeaf[V] {
	if x.runs == 0 {
		return nil
	}
	tag, mask := uint32(key.hash()>>32), uint32(len(x.slots)-1)
	base := key.Index &^ runMask
	for i := tag & mask; ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.lf == nil {
			return nil
		}
		if s.tag == tag && s.lf.base == base && s.lf.object == key.Object && s.lf.pool == key.Pool {
			return s.lf
		}
	}
}

// Get returns key's value, or nil when key is not held.
func (x *RunIndex[V]) Get(key Key) *V {
	if lf := x.run(key); lf != nil {
		if off := key.Index & runMask; lf.used&(1<<off) != 0 {
			return &lf.vals[off]
		}
	}
	return nil
}

// Insert returns key's value and whether key was absent; an absent key is
// added with the zero V.
func (x *RunIndex[V]) Insert(key Key) (v *V, added bool) {
	lf, off, added := x.insert(key)
	return &lf.vals[off], added
}

// insert is Insert for callers that keep the leaf and offset of the value,
// to remove it later without probing the table (removeAt).
func (x *RunIndex[V]) insert(key Key) (lf *runLeaf[V], off int, added bool) {
	if lf = x.run(key); lf == nil {
		lf = x.addRun(key)
	}
	off = int(key.Index & runMask)
	if lf.used&(1<<off) != 0 {
		return lf, off, false
	}
	lf.used |= 1 << off
	x.live++
	return lf, off, true
}

// Delete removes key, returning its value and whether it was held.
func (x *RunIndex[V]) Delete(key Key) (v V, ok bool) {
	lf, off := x.run(key), int(key.Index&runMask)
	if lf == nil || lf.used&(1<<off) == 0 {
		return v, false
	}
	v = lf.vals[off]
	x.removeAt(lf, off)
	return v, true
}

// addRun takes a leaf for key's run from the free list, refilled a chunk
// at a time, and enters it in the table.
func (x *RunIndex[V]) addRun(key Key) *runLeaf[V] {
	if (x.runs+1)*4 > len(x.slots)*3 {
		x.grow()
	}
	if x.free == nil {
		x.addChunk()
	}
	lf := x.free
	x.free, lf.next = lf.next, nil
	lf.pool, lf.object, lf.base = key.Pool, key.Object, key.Index&^runMask
	lf.tag = uint32(key.hash() >> 32)
	mask := uint32(len(x.slots) - 1)
	i := lf.tag & mask
	for x.slots[i].lf != nil {
		i = (i + 1) & mask
	}
	x.slots[i] = runSlot[V]{lf.tag, lf}
	x.runs++
	return lf
}

// addChunk allocates leafChunk empty leaves onto the free list, which must
// be empty, so they are taken in allocation order.
func (x *RunIndex[V]) addChunk() {
	c := new([leafChunk]runLeaf[V])
	for i := len(c) - 1; i >= 0; i-- {
		c[i].next = x.free
		x.free = &c[i]
	}
	x.chunks = append(x.chunks, c)
}

// grow doubles the table and re-places every slot by its stored tag.
func (x *RunIndex[V]) grow() {
	old := x.slots
	x.slots = make([]runSlot[V], max(2*len(old), minSlots))
	mask := uint32(len(x.slots) - 1)
	for _, s := range old {
		if s.lf == nil {
			continue
		}
		i := s.tag & mask
		for x.slots[i].lf != nil {
			i = (i + 1) & mask
		}
		x.slots[i] = s
	}
}

// removeAt removes the key whose value is lf.vals[off], zeroing the value;
// the last key of a run to go takes its leaf out of the table and onto the
// free list.
func (x *RunIndex[V]) removeAt(lf *runLeaf[V], off int) {
	var zero V
	lf.vals[off] = zero
	lf.used &^= 1 << off
	x.live--
	if lf.used != 0 {
		return
	}
	mask := uint32(len(x.slots) - 1)
	hole := lf.tag & mask
	for x.slots[hole].lf != lf {
		hole = (hole + 1) & mask
	}
	// Backward shift: pull every later member of the probe run whose home
	// slot lies at or before the hole back into it.
	for i := hole; ; {
		i = (i + 1) & mask
		s := x.slots[i]
		if s.lf == nil {
			break
		}
		if (i-s.tag)&mask >= (i-hole)&mask {
			x.slots[hole] = s
			hole = i
		}
	}
	x.slots[hole] = runSlot[V]{}
	x.runs--
	lf.next = x.free
	x.free = lf
}

// All ranges over every key held and its value, leaf by leaf in allocation
// order and by index within a leaf (for k, v := range x.All). The loop body
// may remove the key it is handed, and must add none.
func (x *RunIndex[V]) All(yield func(Key, *V) bool) {
	for _, c := range x.chunks {
		for j := range c {
			lf := &c[j]
			for off := range runLen {
				if lf.used&(1<<off) != 0 && !yield(lf.key(off), &lf.vals[off]) {
					return
				}
			}
		}
	}
}

// Check verifies the index's structure: every leaf holding keys sits in
// the table once, under its own tag, where a lookup of its run finds it;
// every other leaf is on the free list; and the leaves hold Len keys.
func (x *RunIndex[V]) Check() error {
	inTable := 0
	for _, s := range x.slots {
		if s.lf == nil {
			continue
		}
		inTable++
		if s.tag != s.lf.tag || s.lf.used == 0 || x.run(s.lf.key(0)) != s.lf {
			return fmt.Errorf("tmem: table slot of run %v has tag %#x (leaf %#x), keys %08b, and a lookup of the run misses it",
				s.lf.key(0), s.tag, s.lf.tag, s.lf.used)
		}
	}
	if inTable != x.runs {
		return fmt.Errorf("tmem: table holds %d runs, counted %d", inTable, x.runs)
	}
	free := 0
	for lf := x.free; lf != nil; lf = lf.next {
		if lf.used != 0 {
			return fmt.Errorf("tmem: leaf of run %v holds keys %08b on the free list", lf.key(0), lf.used)
		}
		free++
	}
	keys, held := 0, 0
	for _, c := range x.chunks {
		for j := range c {
			if n := bits.OnesCount8(c[j].used); n > 0 {
				held++
				keys += n
			}
		}
	}
	if leaves := len(x.chunks) * leafChunk; held != x.runs || held+free != leaves {
		return fmt.Errorf("tmem: %d leaves: %d hold keys, %d free, %d runs in the table", leaves, held, free, x.runs)
	}
	if keys != x.live {
		return fmt.Errorf("tmem: leaves hold %d keys, counted %d", keys, x.live)
	}
	return nil
}
