package tmem

// This file implements the batched page operations of the wire path
// (DESIGN.md §9): PutBatch/GetBatch, used by the kvstore daemon's
// OpPutBatch/OpGetBatch frames and by Loopback for a peer's overflow runs
// (into peer pools, which never walk the tiers). Instead of paying one
// stripe-lock round trip per page, a batch groups its keys by stripe,
// acquires each stripe lock once per batch and walks the tier stack with
// whole sub-runs. Within a stripe, issue order is preserved; across
// stripes, order is unspecified (as for any concurrent callers). The guest
// kernel makes one per-page call per fault, as the paper's hooks do.
//
// The locked fast paths reuse tryPutLocked/getLocked and the tier walk
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

// PutBatch performs Put for every key, grouping keys by stripe so each
// stripe lock is acquired once per batch rather than once per page, and
// offering locally rejected pages to the tier stack in whole runs (one
// remote round trip per tier, see RemoteTier.PutBatch). datas may be nil
// (all zero pages) or hold one payload per key; sts receives one status
// per key.
func (b *Backend) PutBatch(keys []Key, datas [][]byte, sts []Status) {
	checkBatch(keys, datas, sts)
	if len(keys) == 0 {
		return
	}
	sc := b.getScratch(len(keys))
	defer b.putScratch(sc)
	b.resolvePools(sc, keys)
	w := tierWalk{keys: keys, pools: sc.pools, datas: datas, sts: sts, ft: sc.ft, run: sc.run, rem: sc.rem}

	// A local answer either stands, or defers the key past the locked
	// region: a fresh local copy of a tier-tracked key to the supersede
	// flush (sup), a refusal to the tier walk (offer). Either way sc.ft[i]
	// keeps the tier the key was tracked in.
	settle := func(i int32, st Status, ft int) {
		switch {
		case st == STmem && ft >= 0:
			sts[i] = STmem
			sc.ft[i] = int16(ft)
			sc.sup = append(sc.sup, i)
		case st == ETmem && b.walksTiers(sc.pools[i]):
			sc.ft[i] = int16(ft)
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
			if p == nil || b.oversize(w.data(i)) {
				sts[i] = EInval
				continue
			}
			st, retry, ft := b.tryPutLocked(sh, p, keys[i], w.data(i), true)
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
		st, ft := b.putRetry(b.shardFor(keys[i]), p, keys[i], w.data(i), false)
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
			st, ti := b.getLocked(sh, p, keys[i], dst(i))
			sts[i] = st
			if ti >= 0 {
				sc.ft[i] = int16(ti)
				sc.offer = append(sc.offer, i)
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
			sts[i] = b.tierAnswered(b.shardFor(keys[i]), sc.pools[i], keys[i], t, t.Get(keys[i], dst(i)))
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
			sts[i] = b.tierAnswered(b.shardFor(keys[i]), sc.pools[i], keys[i], t, sc.subSts[j])
		}
	}
}
