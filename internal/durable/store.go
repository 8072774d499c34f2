package durable

import (
	"fmt"
	"sync/atomic"

	"smartmem/internal/mem"
	"smartmem/internal/tmem"
)

// Store is the smartmem-kvd integration: a write-through wrapper around a
// *tmem.Backend implementing the kvstore server surface. Every successful
// persistent-pool mutation is journaled after the backend accepts it —
// including puts a RAM tier (compressed, remote) absorbed, which a
// demotion-tier attachment would never see. The journal therefore holds
// the daemon's whole persistent state — on the blob store, with only an
// index of it in memory, so the backend's copy of a page is the process's
// only one — and a SIGKILL at any point loses nothing that was
// acknowledged over the wire.
//
// Write-through ordering: the backend mutation happens first, the journal
// append second, and a journal failure undoes the backend put (the guest
// sees ETmem, never a false durability promise). A refused put journals
// the end of the key's previous version, as the backend dropped it. The
// journal's first failure is sticky (Log.Err): from then on every
// persistent put, and every new persistent pool, is refused until restart.
// Flushes and pool drops leave the journal's errors unreturned: the log
// takes the keys out of its index whether or not it could record that,
// and its failure is what Degraded reports.
type Store struct {
	b   *tmem.Backend
	log *Log

	// recoveryServed counts gets read back from the journal because the
	// restarted backend no longer held the page (capacity shrank or a tier
	// dropped it across the restart).
	recoveryServed atomic.Uint64
}

// NewStore wraps backend with write-through journaling into log.
func NewStore(b *tmem.Backend, log *Log) *Store {
	return &Store{b: b, log: log}
}

// Backend returns the wrapped backend.
func (s *Store) Backend() *tmem.Backend { return s.b }

// Log returns the journal.
func (s *Store) Log() *Log { return s.log }

// Degraded reports whether journaling has failed and durability is
// suspended.
func (s *Store) Degraded() bool { return s.log.Err() != nil }

// RecoveryServed counts gets read back from the journal after the
// restarted backend missed.
func (s *Store) RecoveryServed() uint64 { return s.recoveryServed.Load() }

// RecoverStats summarizes a Recover replay.
type RecoverStats struct {
	// Pools is the number of persistent pools re-created.
	Pools int
	// Pages is the number of pages re-stored into the backend (possibly
	// landing in lower RAM tiers again).
	Pages uint64
	// Dropped counts recovered pages the backend could not hold (capacity
	// shrank across the restart). They stay in the journal and Get reads
	// them back from it.
	Dropped uint64
}

// Recover replays the journal's recovered state into the backend: pools
// are re-created under their original wire-visible ids, then every live
// page is read back from the blob store — a second time: Open's scan
// checked it, this pass restores it — and re-stored through the full tier
// stack. Call once, after tiers are attached and before serving traffic.
func (s *Store) Recover() (RecoverStats, error) {
	var rs RecoverStats
	for _, p := range s.log.Pools() {
		if err := s.b.RestorePool(p.ID, p.VM, p.Kind); err != nil {
			return rs, fmt.Errorf("durable: recover pool %d: %w", p.ID, err)
		}
		rs.Pools++
	}
	err := s.log.RangePages(func(key tmem.Key, data []byte) bool {
		if s.b.Put(key, data) == tmem.STmem {
			rs.Pages++
		} else {
			rs.Dropped++
		}
		return true
	})
	if err != nil {
		return rs, fmt.Errorf("durable: recover pages: %w", err)
	}
	return rs, nil
}

// --- kvstore server surface ---

func (s *Store) PageSize() mem.Bytes { return s.b.PageSize() }

// NewPool creates the pool in the backend and journals it if persistent.
// A persistent pool the journal cannot record is destroyed again: none of
// its pages could be made durable.
func (s *Store) NewPool(vm tmem.VMID, kind tmem.PoolKind) tmem.PoolID {
	id := s.b.NewPool(vm, kind)
	if id != tmem.InvalidPool && s.log.NewPool(id, vm, kind) != nil {
		s.b.DestroyPool(id)
		return tmem.InvalidPool
	}
	return id
}

func (s *Store) DestroyPool(id tmem.PoolID) error {
	err := s.b.DestroyPool(id)
	s.log.DropPool(id)
	return err
}

func (s *Store) Put(key tmem.Key, data []byte) tmem.Status {
	sts := [1]tmem.Status{s.b.Put(key, data)}
	s.journal([]tmem.Key{key}, [][]byte{data}, sts[:])
	return sts[0]
}

func (s *Store) PutBatch(keys []tmem.Key, datas [][]byte, sts []tmem.Status) {
	s.b.PutBatch(keys, datas, sts)
	s.journal(keys, datas, sts)
}

// journal hands the backend's answers to the log, which journals the
// accepted pages of its pools, and settles every key left refused. A
// failed put invalidates the key's old copy (tmem's contract), so a
// refused key leaves the journal: Log.FlushPage writes a record only for
// a page it holds, and drops it from the index even when the journal has
// failed. When the journal failed, refused keys leave the backend too:
// that takes out the pages the journal refused, which a crash would lose,
// and is a no-op for the keys the backend refused itself.
func (s *Store) journal(keys []tmem.Key, datas [][]byte, sts []tmem.Status) {
	err := s.log.PutBatch(keys, datas, sts)
	for i, key := range keys {
		if sts[i] == tmem.STmem {
			continue
		}
		if err != nil {
			s.b.FlushPage(key)
		}
		s.log.FlushPage(key)
	}
}

// Get reads the page from the backend and, on a miss, from the journal.
// That only serves pages Recover could not re-store (shrunken capacity):
// in steady state backend and journal agree.
func (s *Store) Get(key tmem.Key, dst []byte) tmem.Status {
	st := s.b.Get(key, dst)
	if st != tmem.STmem && s.log.Get(key, dst) {
		s.recoveryServed.Add(1)
		return tmem.STmem
	}
	return st
}

func (s *Store) FlushPage(key tmem.Key) tmem.Status {
	st := s.b.FlushPage(key)
	removed, _ := s.log.FlushPage(key)
	if removed && st != tmem.STmem {
		st = tmem.STmem
	}
	return st
}

func (s *Store) FlushObject(pool tmem.PoolID, object tmem.ObjectID) (mem.Pages, tmem.Status) {
	n, st := s.b.FlushObject(pool, object)
	m, _ := s.log.FlushObject(pool, object)
	// The journal and backend hold the same key set; report whichever saw
	// more in case recovery left the journal a superset.
	if mem.Pages(m) > n {
		n = mem.Pages(m)
	}
	if m > 0 && st != tmem.STmem {
		st = tmem.STmem
	}
	return n, st
}

func (s *Store) GetBatch(keys []tmem.Key, dsts [][]byte, sts []tmem.Status) {
	s.b.GetBatch(keys, dsts, sts)
	for i, key := range keys {
		if sts[i] == tmem.STmem {
			continue
		}
		var dst []byte
		if dsts != nil {
			dst = dsts[i]
		}
		if s.log.Get(key, dst) {
			s.recoveryServed.Add(1)
			sts[i] = tmem.STmem
		}
	}
}
