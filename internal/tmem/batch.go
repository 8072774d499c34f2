package tmem

// This file implements the batched page operations of the store hot path
// (DESIGN.md §9): instead of paying one stripe-lock round trip per page, a
// caller with a run of keys hands the whole run to the backend, which
// acquires each stripe lock once per run of same-stripe keys and walks the
// tier stack with whole sub-runs. Three surfaces, by caller:
//
//   - GetRun/FlushRun: issue-order runs with lazy lock batching, used by
//     the guest kernel's batched PFRA spine. Order is preserved exactly, so
//     a single-shard (simulator) backend observes the identical operation
//     sequence a per-page loop would produce — goldens stay byte-identical.
//   - PutBatch/GetBatch: shard-grouped batches with full tier semantics,
//     used by the kvstore daemon's OpPutBatch/OpGetBatch frames. Within a
//     stripe, issue order is preserved; across stripes, order is
//     unspecified (as for any concurrent callers).
//   - PutBatchLocal/GetBatchLocal: the tier-0 restriction of the above,
//     the surface Loopback serves to remote peers (see PutLocal).
//
// The locked fast paths reuse tryPutLocked/getHitLocked, so batch and
// per-page operations can never drift apart semantically. Pool resolution
// takes no lock (see Backend.pool); tier calls always happen after the
// stripe lock is released.

// batchScratch carries the per-call working state of PutBatch/GetBatch so
// a warm backend serves batches without allocating.
type batchScratch struct {
	pools    []*Pool
	groups   [][]int32
	slow     []int32
	sup      []int32
	offer    []int32
	ft       []int16
	subIdx   []int32
	run      []int32
	subKeys  []Key
	subKinds []PoolKind
	subDatas [][]byte
	subSts   []Status
}

func (b *Backend) getScratch(n int) *batchScratch {
	sc := b.batchPool.Get().(*batchScratch)
	if cap(sc.pools) < n {
		sc.pools = make([]*Pool, n)
		sc.ft = make([]int16, n)
	}
	sc.pools = sc.pools[:n]
	sc.ft = sc.ft[:n]
	if sc.groups == nil {
		sc.groups = make([][]int32, len(b.shards))
	}
	return sc
}

func (b *Backend) putScratch(sc *batchScratch) {
	clear(sc.pools) // do not retain pool references across calls
	clear(sc.subDatas)
	sc.slow, sc.sup, sc.offer = sc.slow[:0], sc.sup[:0], sc.offer[:0]
	sc.subIdx, sc.run, sc.subKeys = sc.subIdx[:0], sc.run[:0], sc.subKeys[:0]
	sc.subKinds, sc.subDatas, sc.subSts = sc.subKinds[:0], sc.subDatas[:0], sc.subSts[:0]
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
	b.enter()
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
		if b.tiers[ti].Get(key, nil) == STmem {
			a.cumulGetsHit.Add(1)
			if p.kind == Ephemeral {
				sh.dropRemote(key)
			}
			sts[i] = STmem
			continue
		}
		sh.dropRemote(key)
		sts[i] = ETmem
		return i + 1
	}
	return len(keys)
}

// FlushRun performs FlushPage for each key in issue order with the same
// lazy lock batching as GetRun (no early stop: flushing an absent page is
// harmless).
func (b *Backend) FlushRun(keys []Key, sts []Status) {
	b.enter()
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
	b.enter()
	b.putBatch(keys, datas, sts, true)
}

// PutBatchLocal is PutBatch restricted to tier 0 (the Loopback surface; an
// overflow batch accepted on behalf of a peer never cascades further).
func (b *Backend) PutBatchLocal(keys []Key, datas [][]byte, sts []Status) {
	b.putBatch(keys, datas, sts, false)
}

func (b *Backend) putBatch(keys []Key, datas [][]byte, sts []Status, withTiers bool) {
	checkBatch(keys, datas, sts)
	if len(keys) == 0 {
		return
	}
	data := func(i int32) []byte {
		if datas == nil {
			return nil
		}
		return datas[i]
	}
	sc := b.getScratch(len(keys))
	defer b.putScratch(sc)
	b.resolvePools(sc, keys)
	withTiers = withTiers && len(b.tiers) > 0

	// Phase A: local attempts, one stripe lock per group. Keys that need
	// the eviction loop (slow), a supersede flush (sup) or a tier offer
	// (offer) are deferred past the locked region.
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
			st, retry, ft := b.tryPutLocked(sh, p, a, keys[i], data(i))
			switch {
			case retry:
				sc.slow = append(sc.slow, i)
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
		sh.mu.Unlock()
	}
	if len(b.shards) == 1 {
		idxs := sc.groups[0][:0]
		for i := range keys {
			idxs = append(idxs, int32(i))
		}
		sc.groups[0] = idxs
		process(b.shards[0], idxs)
	} else {
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

	// Phase B: eviction-retry stragglers, per key (evictions take other
	// stripe locks, so they cannot run under the batch group lock).
	for _, i := range sc.slow {
		p := sc.pools[i]
		sh := b.shardFor(keys[i])
		st, ft := b.putRetry(sh, p, p.acct, keys[i], data(i))
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

	// Supersede: a fresh local copy shadows a stale lower-tier one (see
	// Put for the concurrent re-track caveat).
	for _, i := range sc.sup {
		sh := b.shardFor(keys[i])
		if sh.remoteTier(keys[i]) < 0 {
			b.tiers[sc.ft[i]].FlushPage(keys[i])
		}
	}

	if !withTiers || len(sc.offer) == 0 {
		return
	}
	// Phase C: tier offers, in whole runs — the run the wire protocol
	// ships in a single round trip. A key already tracked in a tier is
	// re-offered there first (the tier replaces contents in place), one run
	// per tier; what is untracked, or was just refused, walks the stack top
	// down, one run per tier. sc.ft[i] is the tier key i was tracked in (-1
	// for none), which is also the one tier the walk must not ask again.
	offerRun := func(t Tier, run []int32) {
		sc.subSts = sc.subSts[:0]
		bt, ok := t.(BatchTier)
		if !ok || len(run) == 1 {
			for _, i := range run {
				sc.subSts = append(sc.subSts, t.Put(keys[i], sc.pools[i].kind, data(i)))
			}
			return
		}
		sc.subKeys, sc.subKinds, sc.subDatas = sc.subKeys[:0], sc.subKinds[:0], sc.subDatas[:0]
		for _, i := range run {
			sc.subKeys = append(sc.subKeys, keys[i])
			sc.subKinds = append(sc.subKinds, sc.pools[i].kind)
			sc.subDatas = append(sc.subDatas, data(i))
			sc.subSts = append(sc.subSts, ETmem)
		}
		bt.PutBatch(sc.subKeys, sc.subKinds, sc.subDatas, sc.subSts)
	}
	accepted := func(t Tier, tierIdx int, i int32) {
		if !b.shardFor(keys[i]).noteRemoteIfFree(sc.pools[i], keys[i], tierIdx) {
			t.FlushPage(keys[i])
		}
		sts[i] = STmem
	}

	rem := sc.subIdx[:0]
	for _, i := range sc.offer {
		ti := b.shardFor(keys[i]).remoteTier(keys[i])
		sc.ft[i] = int16(ti)
		if ti < 0 {
			rem = append(rem, i)
		}
	}
	if len(rem) < len(sc.offer) {
		for tierIdx, t := range b.tiers {
			run := sc.run[:0]
			for _, i := range sc.offer {
				if int(sc.ft[i]) == tierIdx {
					run = append(run, i)
				}
			}
			sc.run = run
			if len(run) == 0 {
				continue
			}
			offerRun(t, run)
			for j, i := range run {
				if sc.subSts[j] == STmem {
					accepted(t, tierIdx, i)
					continue
				}
				b.shardFor(keys[i]).dropRemote(keys[i])
				rem = append(rem, i)
			}
		}
	}
	for tierIdx, t := range b.tiers {
		if len(rem) == 0 {
			break
		}
		run := sc.run[:0]
		for _, i := range rem {
			if int(sc.ft[i]) != tierIdx {
				run = append(run, i)
			}
		}
		sc.run = run
		if len(run) == 0 {
			continue
		}
		offerRun(t, run)
		next, j := rem[:0], 0
		for _, i := range rem {
			switch {
			case int(sc.ft[i]) == tierIdx: // not in the run
				next = append(next, i)
			case sc.subSts[j] == STmem:
				accepted(t, tierIdx, i)
				j++
			default:
				next = append(next, i)
				j++
			}
		}
		rem = next
	}
	sc.subIdx = rem
	for _, i := range rem {
		sts[i] = ETmem // every tier rejected the page
	}
}

// GetBatch performs Get for every key with the same stripe grouping as
// PutBatch; local misses tracked in a lower tier are fetched from that
// tier in one batch (one remote round trip per tier). dsts may be nil
// (presence only) or hold one destination buffer per key.
func (b *Backend) GetBatch(keys []Key, dsts [][]byte, sts []Status) {
	b.enter()
	b.getBatch(keys, dsts, sts, true)
}

// GetBatchLocal is GetBatch restricted to tier 0 (the Loopback surface).
func (b *Backend) GetBatchLocal(keys []Key, dsts [][]byte, sts []Status) {
	b.getBatch(keys, dsts, sts, false)
}

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
	if len(b.shards) == 1 {
		idxs := sc.groups[0][:0]
		for i := range keys {
			idxs = append(idxs, int32(i))
		}
		sc.groups[0] = idxs
		process(b.shards[0], idxs)
	} else {
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
	if len(sc.offer) == 0 {
		return
	}

	// Phase B: tier fetches, one batch per involved tier.
	finish := func(i int32, hit bool) {
		p := sc.pools[i]
		sh := b.shardFor(keys[i])
		if hit {
			p.acct.cumulGetsHit.Add(1)
			if p.kind == Ephemeral {
				sh.dropRemote(keys[i]) // lower-tier ephemeral gets are destructive
			}
			sts[i] = STmem
			return
		}
		sh.dropRemote(keys[i]) // the tier lost the page; stop tracking
		sts[i] = ETmem
	}
	for tierIdx, t := range b.tiers {
		sc.subIdx = sc.subIdx[:0]
		for _, i := range sc.offer {
			if int(sc.ft[i]) == tierIdx {
				sc.subIdx = append(sc.subIdx, i)
			}
		}
		if len(sc.subIdx) == 0 {
			continue
		}
		if bt, ok := t.(BatchTier); ok && len(sc.subIdx) > 1 {
			sc.subKeys, sc.subDatas, sc.subSts = sc.subKeys[:0], sc.subDatas[:0], sc.subSts[:0]
			for _, i := range sc.subIdx {
				sc.subKeys = append(sc.subKeys, keys[i])
				sc.subDatas = append(sc.subDatas, dst(i))
				sc.subSts = append(sc.subSts, ETmem)
			}
			bt.GetBatch(sc.subKeys, sc.subDatas, sc.subSts)
			for j, i := range sc.subIdx {
				finish(i, sc.subSts[j] == STmem)
			}
		} else {
			for _, i := range sc.subIdx {
				finish(i, t.Get(keys[i], dst(i)) == STmem)
			}
		}
	}
}
