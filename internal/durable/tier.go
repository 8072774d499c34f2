package durable

import (
	"smartmem/internal/mem"
	"smartmem/internal/tmem"
)

// Tier adapts a Log to tmem.Tier: the terminal leg of the demotion
// chain (RAM → compressed RAM → peer RAM → durable blob). Only
// persistent (frontswap) pages are accepted — an ephemeral page's
// contract allows dropping it, so journaling it buys nothing and costs a
// blob write. Once the journal has failed (Log.Err) every put answers
// ETmem — the guest falls back to its virtual disk — and each failed
// journal call counts in the tier's errors; nothing is retried blindly.
type Tier struct {
	name   string
	log    *Log
	counts tmem.TierCounters
}

// NewTier wraps log as a tmem tier.
func NewTier(name string, log *Log) *Tier {
	return &Tier{name: name, log: log}
}

// Log exposes the underlying journal (stats, recovery, close).
func (t *Tier) Log() *Log { return t.log }

func (t *Tier) Name() string { return t.name }

// fail counts a failed journal call.
func (t *Tier) fail() tmem.Status {
	t.counts.Errors.Add(1)
	return tmem.ETmem
}

func (t *Tier) Put(key tmem.Key, kind tmem.PoolKind, data []byte) tmem.Status {
	var sts [1]tmem.Status
	t.PutBatch([]tmem.Key{key}, []tmem.PoolKind{kind}, [][]byte{data}, sts[:])
	return sts[0]
}

// PutBatch journals the run's persistent pages with one WAL append and
// one group commit; its ephemeral pages answer ETmem. A journal that has
// failed, or fails to journal one of the run's pools, takes none of it.
func (t *Tier) PutBatch(keys []tmem.Key, kinds []tmem.PoolKind, datas [][]byte, sts []tmem.Status) {
	t.counts.Puts.Add(uint64(len(keys)))
	healthy := t.log.Err() == nil
	for i, key := range keys {
		sts[i] = tmem.ETmem
		if healthy && kinds[i] == tmem.Persistent {
			if healthy = t.ensurePool(key.Pool); healthy {
				sts[i] = tmem.STmem
			}
		}
	}
	if !healthy {
		for i := range sts {
			sts[i] = tmem.ETmem
		}
		return
	}
	if t.log.PutBatch(keys, datas, sts) != nil {
		t.fail()
		return
	}
	for _, st := range sts {
		if st == tmem.STmem {
			t.counts.PutsOK.Add(1)
		}
	}
}

// ensurePool reports whether the journal takes pages of the persistent
// pool, journaling the pool the first time one of its pages overflows into
// the tier; a pool it cannot journal counts as the tier's error. The
// backend owns pool-id assignment; the tier only ever sees keys for pools
// that exist, so vm attribution uses the anonymous VMID 0 — the journal
// needs the pool's kind and id, not its owner, to restore pages.
func (t *Tier) ensurePool(pool tmem.PoolID) bool {
	if t.log.HasPool(pool) {
		return true
	}
	if t.log.NewPool(pool, 0, tmem.Persistent) != nil {
		t.fail()
		return false
	}
	return true
}

func (t *Tier) Get(key tmem.Key, dst []byte) tmem.Status {
	t.counts.Gets.Add(1)
	if !t.log.Get(key, dst) {
		return tmem.ETmem
	}
	t.counts.GetsHit.Add(1)
	return tmem.STmem
}

func (t *Tier) FlushPage(key tmem.Key) tmem.Status {
	t.counts.PageFlushes.Add(1)
	removed, err := t.log.FlushPage(key)
	if err != nil {
		return t.fail()
	}
	if !removed {
		return tmem.ETmem
	}
	return tmem.STmem
}

func (t *Tier) FlushObject(pool tmem.PoolID, object tmem.ObjectID) (mem.Pages, tmem.Status) {
	t.counts.ObjectFlushes.Add(1)
	n, err := t.log.FlushObject(pool, object)
	if err != nil {
		return 0, t.fail()
	}
	return mem.Pages(n), tmem.STmem
}

func (t *Tier) DropPool(pool tmem.PoolID) {
	if err := t.log.DropPool(pool); err != nil {
		t.fail()
	}
}

func (t *Tier) Stats() tmem.TierStats { return t.counts.Stats() }

func (t *Tier) GetBatch(keys []tmem.Key, dsts [][]byte, sts []tmem.Status) {
	for i, key := range keys {
		var dst []byte
		if dsts != nil {
			dst = dsts[i]
		}
		sts[i] = t.Get(key, dst)
	}
}

// Summary bundles a durable tier's view for results and sinks: the tier
// counters (demotion traffic) plus the journal counters (WAL/snapshot
// activity and live state).
type Summary struct {
	Tier tmem.TierStats
	Log  Stats
}

// Summary snapshots the tier's counters together with its journal's.
func (t *Tier) Summary() Summary {
	return Summary{Tier: t.Stats(), Log: t.log.Stats()}
}

// Add folds o into s (cluster aggregation).
func (s *Summary) Add(o Summary) {
	s.Tier.Add(o.Tier)
	s.Log.Add(o.Log)
}

var _ tmem.Tier = (*Tier)(nil)
