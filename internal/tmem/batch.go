package tmem

// This file implements the batched page operations of the store hot path
// (DESIGN.md §9): instead of paying one stripe-lock round trip per page, a
// caller with a run of keys hands the whole run to the backend, which
// acquires each stripe lock once per run of same-stripe keys and walks the
// tier stack with whole sub-runs. Two surfaces, by caller:
//
//   - GetRun/FlushRun: issue-order runs with lazy lock batching, used by
//     the guest kernel's batched PFRA spine. Order is preserved exactly, so
//     a single-shard (simulator) backend observes the identical operation
//     sequence a per-page loop would produce — goldens stay byte-identical.
//     Why these are not GetBatch with a stop-on-miss flag: DESIGN.md §9,
//     "Why GetRun/FlushRun stay beside GetBatch".
//   - PutBatch/GetBatch: shard-grouped batches with full tier semantics,
//     used by the kvstore daemon's OpPutBatch/OpGetBatch frames and, with
//     tiers off, by Loopback. Within a stripe, issue order is preserved;
//     across stripes, order is unspecified (as for any concurrent callers).
//
// The locked fast paths reuse tryPutLocked/getHitLocked and the tier walk
// is Put's (Backend.offer), so batch and per-page operations can never
// drift apart semantically. Pool resolution takes no lock (see
// Backend.pool); tier calls always happen after the stripe lock is
// released.

// batchScratch carries the per-call working state of PutBatch/GetBatch so
// a warm backend serves batches without allocating.
type batchScratch struct {
	pools    []*Pool
	groups   [][]int32
	slow     []int32
	sup      []int32
	offer    []int32
	ft       []int16
	run      []int32
	rem      []int32
	subKeys  []Key
	subKinds []PoolKind
	subDatas [][]byte
	subSts   []Status
}

// getScratch sizes the per-key slices for n keys; run and rem get room for
// every key, so the tier walk never grows them.
func (b *Backend) getScratch(n int) *batchScratch {
	sc := b.batchPool.Get().(*batchScratch)
	if cap(sc.pools) < n {
		sc.pools, sc.ft = make([]*Pool, n), make([]int16, n)
		sc.run, sc.rem = make([]int32, n), make([]int32, n)
	}
	sc.pools, sc.ft = sc.pools[:n], sc.ft[:n]
	sc.run, sc.rem = sc.run[:n], sc.rem[:n]
	if sc.groups == nil {
		sc.groups = make([][]int32, len(b.shards))
	}
	return sc
}

func (b *Backend) putScratch(sc *batchScratch) {
	clear(sc.pools) // do not retain pool references across calls
	clear(sc.subDatas)
	sc.slow, sc.sup, sc.offer = sc.slow[:0], sc.sup[:0], sc.offer[:0]
	sc.subKeys, sc.subKinds, sc.subDatas, sc.subSts = sc.subKeys[:0], sc.subKinds[:0], sc.subDatas[:0], sc.subSts[:0]
	for i := range sc.groups {
		sc.groups[i] = sc.groups[i][:0]
	}
	b.batchPool.Put(sc)
}

// resolvePools fills sc.pools for keys, caching the lookup across runs of
// same-pool keys (the common case: a run belongs to one pool).
func (b *Backend) resolvePools(sc *batchScratch, keys []Key) {
	last := InvalidPool
	var lastP *Pool
	for i, k := range keys {
		if i == 0 || k.Pool != last {
			last = k.Pool
			lastP = b.pool(last)
		}
		sc.pools[i] = lastP
	}
}

// checkBatch validates the parallel batch slices.
func checkBatch(keys []Key, datas [][]byte, sts []Status) {
	if len(sts) != len(keys) {
		panic("tmem: batch status slice length mismatch")
	}
	if datas != nil && len(datas) != len(keys) {
		panic("tmem: batch data slice length mismatch")
	}
}

// --- issue-order runs (the guest spine) ---

// GetRun performs Get for each key in issue order, stopping after the
// first non-hit, and returns the number of keys processed (statuses
// written). Consecutive keys on the same stripe share one lock
// acquisition; on a single-shard backend an entire run costs one lock
// round trip. dst buffers are not taken: GetRun serves the simulator's
// presence-only path (the guest models page contents as irrelevant).
func (b *Backend) GetRun(keys []Key, sts []Status) int {
	checkBatch(keys, nil, sts)
	var cur *shard
	unlock := func() {
		if cur != nil {
			cur.mu.Unlock()
			cur = nil
		}
	}
	defer unlock()
	last := InvalidPool
	var p *Pool
	for i, key := range keys {
		if i == 0 || key.Pool != last {
			last = key.Pool
			p = b.pool(last)
		}
		if p == nil {
			sts[i] = EInval
			return i + 1
		}
		a := p.acct
		a.cumulGetsTotal.Add(1)
		sh := b.shardFor(key)
		if cur != sh {
			unlock()
			sh.mu.Lock()
			cur = sh
		}
		e := sh.lookup(key)
		if e == nil {
			sts[i] = ETmem
			return i + 1
		}
		if e.tier == tierLocal {
			st := b.getHitLocked(sh, p, a, e, nil)
			sts[i] = st
			if st != STmem {
				return i + 1
			}
			continue
		}
		ti := e.tier
		unlock()
		if sts[i] = b.tierAnswered(p, key, b.tiers[ti].Get(key, nil)); sts[i] != STmem {
			return i + 1
		}
	}
	return len(keys)
}

// FlushRun performs FlushPage for each key in issue order with the same
// lazy lock batching as GetRun (no early stop: flushing an absent page is
// harmless).
func (b *Backend) FlushRun(keys []Key, sts []Status) {
	checkBatch(keys, nil, sts)
	var cur *shard
	unlock := func() {
		if cur != nil {
			cur.mu.Unlock()
			cur = nil
		}
	}
	defer unlock()
	last := InvalidPool
	var p *Pool
	for i, key := range keys {
		if i == 0 || key.Pool != last {
			last = key.Pool
			p = b.pool(last)
		}
		if p == nil {
			sts[i] = EInval
			continue
		}
		sh := b.shardFor(key)
		if cur != sh {
			unlock()
			sh.mu.Lock()
			cur = sh
		}
		e := sh.lookup(key)
		if e == nil {
			sts[i] = ETmem
			continue
		}
		ti := e.tier
		b.dropEntry(sh, e)
		if ti >= 0 {
			unlock()
			if b.tiers[ti].FlushPage(key) != STmem {
				sts[i] = ETmem
				continue
			}
		}
		p.acct.cumulFlushes.Add(1)
		sts[i] = STmem
	}
}

// --- shard-grouped batches (the wire path) ---

// PutBatch performs Put for every key, grouping keys by stripe so each
// stripe lock is acquired once per batch rather than once per page, and
// offering locally rejected pages to the tier stack in whole runs (one
// remote round trip per tier, see RemoteTier.PutBatch). datas may be nil
// (all zero pages) or hold one payload per key; sts receives one status
// per key.
func (b *Backend) PutBatch(keys []Key, datas [][]byte, sts []Status) {
	b.putBatch(keys, datas, sts, true)
}

// putBatch is PutBatch's body (see Backend.put); with tiers off an overflow
// batch accepted on behalf of a peer never cascades further.
func (b *Backend) putBatch(keys []Key, datas [][]byte, sts []Status, withTiers bool) {
	checkBatch(keys, datas, sts)
	if len(keys) == 0 {
		return
	}
	sc := b.getScratch(len(keys))
	defer b.putScratch(sc)
	b.resolvePools(sc, keys)
	w := tierWalk{keys: keys, pools: sc.pools, datas: datas, sts: sts, ft: sc.ft, run: sc.run, rem: sc.rem}
	withTiers = withTiers && len(b.tiers) > 0

	// A local answer either stands, or defers the key past the locked
	// region: a fresh local copy of a tier-tracked key to the supersede
	// flush (sup), a refusal to the tier walk (offer).
	settle := func(i int32, st Status, ft int) {
		switch {
		case st == STmem && ft >= 0 && withTiers:
			sts[i] = STmem
			sc.ft[i] = int16(ft)
			sc.sup = append(sc.sup, i)
		case st == ETmem && withTiers:
			sc.offer = append(sc.offer, i)
		default:
			sts[i] = st
		}
	}

	// Phase A: local attempts, one stripe lock per group. Keys that need
	// the eviction loop (slow) wait until the lock is released.
	process := func(sh *shard, idxs []int32) {
		sh.mu.Lock()
		for _, i := range idxs {
			p := sc.pools[i]
			if p == nil {
				sts[i] = EInval
				continue
			}
			a := p.acct
			a.putsTotal.Add(1)
			a.cumulPutsTotal.Add(1)
			st, retry, ft := b.tryPutLocked(sh, p, a, keys[i], w.data(i))
			if retry {
				sc.slow = append(sc.slow, i)
				continue
			}
			settle(i, st, ft)
		}
		sh.mu.Unlock()
	}
	b.eachGroup(sc, keys, process)

	// Phase B: eviction-retry stragglers, per key (evictions take other
	// stripe locks, so they cannot run under the batch group lock).
	for _, i := range sc.slow {
		p := sc.pools[i]
		st, ft := b.putRetry(b.shardFor(keys[i]), p, p.acct, keys[i], w.data(i))
		settle(i, st, ft)
	}
	for _, i := range sc.sup {
		b.supersede(b.shardFor(keys[i]), keys[i], int(sc.ft[i]))
	}
	// Phase C: the tier walk, in whole runs — the run the wire protocol
	// ships in a single round trip.
	if len(sc.offer) > 0 {
		w.offer = sc.offer
		b.offer(&w, sc)
	}
}

// eachGroup hands process the indexes of keys grouped by stripe, in issue
// order within a stripe, one call per stripe that has keys.
func (b *Backend) eachGroup(sc *batchScratch, keys []Key, process func(*shard, []int32)) {
	if len(b.shards) == 1 {
		idxs := sc.groups[0][:0]
		for i := range keys {
			idxs = append(idxs, int32(i))
		}
		sc.groups[0] = idxs
		process(b.shards[0], idxs)
		return
	}
	for i, k := range keys {
		si := k.hash() & b.shardMask
		sc.groups[si] = append(sc.groups[si], int32(i))
	}
	for si, g := range sc.groups {
		if len(g) > 0 {
			process(b.shards[si], g)
		}
	}
}

// GetBatch performs Get for every key with the same stripe grouping as
// PutBatch; local misses tracked in a lower tier are fetched from that
// tier in one batch (one remote round trip per tier). dsts may be nil
// (presence only) or hold one destination buffer per key.
func (b *Backend) GetBatch(keys []Key, dsts [][]byte, sts []Status) {
	b.getBatch(keys, dsts, sts, true)
}

// getBatch is GetBatch's body (see Backend.put); with tiers off a key
// tracked in a lower tier reads as a miss.
func (b *Backend) getBatch(keys []Key, dsts [][]byte, sts []Status, withTiers bool) {
	checkBatch(keys, dsts, sts)
	if len(keys) == 0 {
		return
	}
	dst := func(i int32) []byte {
		if dsts == nil {
			return nil
		}
		return dsts[i]
	}
	sc := b.getScratch(len(keys))
	defer b.putScratch(sc)
	b.resolvePools(sc, keys)
	withTiers = withTiers && len(b.tiers) > 0

	// Phase A: local lookups, one stripe lock per group. Tier-tracked
	// misses are deferred (sc.offer) with their tier index in sc.ft.
	process := func(sh *shard, idxs []int32) {
		sh.mu.Lock()
		for _, i := range idxs {
			p := sc.pools[i]
			if p == nil {
				sts[i] = EInval
				continue
			}
			a := p.acct
			a.cumulGetsTotal.Add(1)
			switch e := sh.lookup(keys[i]); {
			case e == nil:
				sts[i] = ETmem
			case e.tier == tierLocal:
				sts[i] = b.getHitLocked(sh, p, a, e, dst(i))
			case withTiers:
				sc.ft[i] = int16(e.tier)
				sc.offer = append(sc.offer, i)
			default:
				sts[i] = ETmem
			}
		}
		sh.mu.Unlock()
	}
	b.eachGroup(sc, keys, process)

	// Phase B: tier fetches, one Get for a run of one, else one GetBatch
	// per involved tier.
	for ti, t := range b.tiers {
		if len(sc.offer) == 0 {
			break
		}
		run := sc.run[:0]
		for _, i := range sc.offer {
			if int(sc.ft[i]) == ti {
				run = append(run, i)
			}
		}
		switch len(run) {
		case 0:
			continue
		case 1:
			i := run[0]
			sts[i] = b.tierAnswered(sc.pools[i], keys[i], t.Get(keys[i], dst(i)))
			continue
		}
		sc.subKeys, sc.subDatas, sc.subSts = sc.subKeys[:0], sc.subDatas[:0], sc.subSts[:0]
		for _, i := range run {
			sc.subKeys = append(sc.subKeys, keys[i])
			sc.subDatas = append(sc.subDatas, dst(i))
			sc.subSts = append(sc.subSts, ETmem)
		}
		t.GetBatch(sc.subKeys, sc.subDatas, sc.subSts)
		for j, i := range run {
			sts[i] = b.tierAnswered(sc.pools[i], keys[i], sc.subSts[j])
		}
	}
}
