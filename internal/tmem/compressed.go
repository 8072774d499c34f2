package tmem

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"smartmem/internal/mem"
)

// This file implements CompressedTier: the zcache leg of the tmem lineage
// (tmem → zcache → RAMster). It sits between the striped local store
// (tier 0) and the RemoteTier/vdisk fallback: a page demoted off the local
// frame pool compresses through a pluggable Codec into a size-class slab
// arena instead of costing a network round trip or a disk op, and identical
// pages across VMs — the common case for zero pages and shared text —
// dedup to one refcounted blob keyed by content hash. The tier trades a few
// µs of codec CPU for 2–4x effective RAM capacity, which it reports through
// EffectiveExtraPages so policies allocate against compressed capacity, not
// raw frames.
//
// Concurrency: one mutex guards the whole tier. The codec carries scratch
// state (not concurrency-safe) and every operation touches the shared dedup
// index, so striping would buy little; the tier sits on the overflow path,
// not the per-access hot path, and the backend already absorbed the
// parallelism in tier 0. The warm put→get cycle is 0 heap allocs/op: encode
// scratch, page scratch, slab buffers and entry structs all recycle through
// tier-owned free lists (the PR 5 discipline).

// Slab size-class bounds: blobs round up to the next power of two between
// 32 B (a zero page encodes to a handful of bytes) and 128 KiB (a 64 KiB
// page plus framing that failed to compress).
const (
	slabMinShift = 5  // 32 B
	slabMaxShift = 17 // 128 KiB
	slabClasses  = slabMaxShift - slabMinShift + 1
)

// slabClass maps a blob size to its size-class index.
func slabClass(n int) int {
	if n <= 1<<slabMinShift {
		return 0
	}
	return bits.Len(uint(n-1)) - slabMinShift
}

// slabClassSize is the rounded (charged) byte size of a class.
func slabClassSize(class int) mem.Bytes {
	return mem.Bytes(1) << (slabMinShift + class)
}

// cblob is one deduplicated compressed page: the encoded bytes in a slab
// buffer, shared by refs index entries. Blobs with colliding content hashes
// chain through link.
type cblob struct {
	hash  uint64
	data  []byte // slab buffer, len = encoded size, cap = class size
	class int
	refs  int32
	link  *cblob // hash-bucket collision chain
}

// cobjKey addresses one object's page map in the tier's index.
type cobjKey struct {
	pool   PoolID
	object ObjectID
}

// centry is one stored page in the tier's index: which blob holds its
// contents, its pool kind, and the per-object map linkage.
type centry struct {
	blob *cblob
	kind PoolKind
	next *centry // free-list chain
}

// CompressedTierConfig configures NewCompressedTier. The zero value of
// every field but CapacityBytes has a usable default.
type CompressedTierConfig struct {
	// PageSize is the raw page size in bytes (must match the backend's).
	PageSize int
	// CapacityBytes is the slab arena budget: the sum of charged class
	// sizes never exceeds it. Required, > 0.
	CapacityBytes mem.Bytes
	// Codec compresses pages on demotion; default is the LZ codec. The
	// tier owns the instance (codec scratch is guarded by the tier lock).
	Codec Codec
}

// compressedRatioCap caps how many pages the arena may hold relative to
// CapacityBytes/PageSize, bounding the capacity amplification a
// dedup-degenerate workload (all zero pages) could advertise.
const compressedRatioCap = 8

// CompressedTier is a Tier storing demoted pages compressed and
// deduplicated in RAM. See the file comment for design.
type CompressedTier struct {
	pageSize int
	capacity mem.Bytes
	maxPages mem.Pages
	codec    Codec

	mu      sync.Mutex
	objects map[cobjKey]map[PageIndex]*centry
	// dedup maps content hash → blob chain. Keyed by the hash of the
	// encoded bytes: the codec is deterministic, so equal raw pages encode
	// identically and encoded equality implies raw equality.
	dedup map[uint64]*cblob

	// Free lists (the PR 5 zero-alloc discipline): per-class slab buffers,
	// blob and entry structs, a parked empty per-object map, and the
	// encode/page scratch buffers.
	freeBufs  [slabClasses][][]byte
	freeBlobs *cblob
	freeEnts  *centry
	spareObj  map[PageIndex]*centry
	encBuf    []byte
	pageBuf   []byte

	// zeroEnc is the precomputed encoding of the all-zero page: the
	// simulator's meta stores pass nil page data everywhere, and a nil put
	// must neither touch the codec (keeps codec-ns counters deterministic)
	// nor depend on scratch contents.
	zeroEnc  []byte
	zeroHash uint64

	// Accounting, guarded by mu.
	pagesStored mem.Pages
	uniqueBlobs int64
	rawBytes    mem.Bytes // pageSize per stored page
	storedBytes mem.Bytes // charged slab class sizes, counted once per blob

	stats CompressedTierStats
}

// CompressedTierStats extends the generic tier counters with the
// compression and dedup accounting of a CompressedTier snapshot.
type CompressedTierStats struct {
	TierStats

	PagesStored  mem.Pages // pages currently indexed
	UniqueBlobs  int64     // distinct blobs currently in the arena
	RawBytes     mem.Bytes // uncompressed footprint of stored pages
	StoredBytes  mem.Bytes // charged slab bytes (counted once per blob)
	DedupHits    uint64    // puts that landed on an existing blob
	RejectedFull uint64    // puts rejected on arena or page-count exhaustion
	DecodeErrors uint64    // stored blobs that failed to decode (dropped)
	CompressNs   uint64    // cumulative codec encode time
	DecompressNs uint64    // cumulative codec decode time
}

// Ratio returns the effective compression ratio RawBytes/StoredBytes
// (dedup included), or 0 when nothing is stored.
func (s CompressedTierStats) Ratio() float64 {
	if s.StoredBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.StoredBytes)
}

// Add accumulates o into s (cluster-wide summing; gauges add too, so the
// sum reads as the cluster total).
func (s *CompressedTierStats) Add(o CompressedTierStats) {
	s.Puts += o.Puts
	s.PutsOK += o.PutsOK
	s.Gets += o.Gets
	s.GetsHit += o.GetsHit
	s.PageFlushes += o.PageFlushes
	s.ObjectFlushes += o.ObjectFlushes
	s.Errors += o.Errors
	s.PagesStored += o.PagesStored
	s.UniqueBlobs += o.UniqueBlobs
	s.RawBytes += o.RawBytes
	s.StoredBytes += o.StoredBytes
	s.DedupHits += o.DedupHits
	s.RejectedFull += o.RejectedFull
	s.DecodeErrors += o.DecodeErrors
	s.CompressNs += o.CompressNs
	s.DecompressNs += o.DecompressNs
}

// NewCompressedTier creates the tier. Panics on a config the caller should
// have validated (mirrors NewBackend).
func NewCompressedTier(cfg CompressedTierConfig) *CompressedTier {
	if cfg.PageSize <= 0 {
		panic("tmem: compressed tier needs a page size")
	}
	if cfg.CapacityBytes <= 0 {
		panic("tmem: compressed tier needs a capacity")
	}
	codec := cfg.Codec
	if codec == nil {
		codec = NewLZCodec()
	}
	if cfg.PageSize > (1<<slabMaxShift)-1 {
		panic(fmt.Sprintf("tmem: page size %d exceeds the %d slab bound",
			cfg.PageSize, (1<<slabMaxShift)-1))
	}
	t := &CompressedTier{
		pageSize: cfg.PageSize,
		capacity: cfg.CapacityBytes,
		maxPages: compressedRatioCap * mem.Pages(cfg.CapacityBytes/mem.Bytes(cfg.PageSize)),
		codec:    codec,
		objects:  make(map[cobjKey]map[PageIndex]*centry),
		dedup:    make(map[uint64]*cblob),
		pageBuf:  make([]byte, cfg.PageSize),
	}
	t.zeroEnc = codec.Encode(nil, t.pageBuf)
	t.zeroHash = hashBlob(t.zeroEnc)
	return t
}

// Name implements Tier.
func (t *CompressedTier) Name() string { return "compressed" }

// PageSize returns the raw page size the tier was built for.
func (t *CompressedTier) PageSize() int { return t.pageSize }

// CapacityBytes returns the slab arena budget.
func (t *CompressedTier) CapacityBytes() mem.Bytes { return t.capacity }

// Stats implements Tier.
func (t *CompressedTier) Stats() TierStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats.TierStats
}

// CompressedStats returns the full accounting snapshot.
func (t *CompressedTier) CompressedStats() CompressedTierStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats
	s.PagesStored = t.pagesStored
	s.UniqueBlobs = t.uniqueBlobs
	s.RawBytes = t.rawBytes
	s.StoredBytes = t.storedBytes
	return s
}

// EffectiveExtraPages reports how many pages beyond tier 0's frame count
// this tier can hold, extrapolated from the observed per-page stored cost
// (Backend.Sample folds it into MemStats.EffectiveTmem). Before any page
// lands it assumes ratio 1 — capacity/pageSize — so policies never
// over-commit against compression that has not proven itself.
func (t *CompressedTier) EffectiveExtraPages() mem.Pages {
	t.mu.Lock()
	defer t.mu.Unlock()
	capPages := mem.Pages(t.capacity / mem.Bytes(t.pageSize))
	if t.pagesStored == 0 {
		return capPages
	}
	per := t.storedBytes / mem.Bytes(t.pagesStored)
	var eff mem.Pages
	if per == 0 {
		eff = t.maxPages // pure dedup so far: only the page cap binds
	} else {
		eff = t.pagesStored + mem.Pages((t.capacity-t.storedBytes)/per)
	}
	if eff > t.maxPages {
		eff = t.maxPages
	}
	return eff
}

// --- slab / blob / entry recycling (caller holds mu) ---

func (t *CompressedTier) takeBuf(class int) []byte {
	if list := t.freeBufs[class]; len(list) > 0 {
		buf := list[len(list)-1]
		t.freeBufs[class] = list[:len(list)-1]
		return buf
	}
	return make([]byte, 0, slabClassSize(class))
}

func (t *CompressedTier) giveBuf(class int, buf []byte) {
	t.freeBufs[class] = append(t.freeBufs[class], buf[:0])
}

func (t *CompressedTier) allocBlob() *cblob {
	b := t.freeBlobs
	if b == nil {
		return &cblob{}
	}
	t.freeBlobs = b.link
	b.link = nil
	return b
}

func (t *CompressedTier) allocEntry() *centry {
	e := t.freeEnts
	if e == nil {
		return &centry{}
	}
	t.freeEnts = e.next
	e.next = nil
	return e
}

func (t *CompressedTier) freeEntry(e *centry) {
	*e = centry{next: t.freeEnts}
	t.freeEnts = e
}

func (t *CompressedTier) takeObj() map[PageIndex]*centry {
	if obj := t.spareObj; obj != nil {
		t.spareObj = nil
		return obj
	}
	return make(map[PageIndex]*centry)
}

// deref drops one reference from b, returning its slab buffer and struct
// to the free lists when the last reference goes.
func (t *CompressedTier) deref(b *cblob) {
	b.refs--
	if b.refs > 0 {
		return
	}
	// Unlink from the dedup chain.
	head := t.dedup[b.hash]
	if head == b {
		if b.link == nil {
			delete(t.dedup, b.hash)
		} else {
			t.dedup[b.hash] = b.link
		}
	} else {
		for p := head; p != nil; p = p.link {
			if p.link == b {
				p.link = b.link
				break
			}
		}
	}
	t.uniqueBlobs--
	t.storedBytes -= slabClassSize(b.class)
	t.giveBuf(b.class, b.data)
	*b = cblob{link: t.freeBlobs}
	t.freeBlobs = b
}

// findBlob looks up a blob with the given hash and encoded contents.
func (t *CompressedTier) findBlob(hash uint64, enc []byte) *cblob {
	for b := t.dedup[hash]; b != nil; b = b.link {
		if len(b.data) == len(enc) && string(b.data) == string(enc) {
			return b
		}
	}
	return nil
}

// encode compresses data (nil = the all-zero page) into the tier's scratch,
// returning the encoded bytes and their content hash. Caller holds mu; the
// returned slice aliases tier scratch and is only valid until the next
// encode.
func (t *CompressedTier) encode(data []byte) ([]byte, uint64) {
	if data == nil {
		return t.zeroEnc, t.zeroHash
	}
	// Stage through pageBuf so a short caller buffer still encodes (and
	// later decodes) as exactly one zero-padded page.
	src := data
	if len(data) != t.pageSize {
		n := copy(t.pageBuf, data)
		clear(t.pageBuf[n:])
		src = t.pageBuf
	}
	start := time.Now()
	t.encBuf = t.codec.Encode(t.encBuf[:0], src)
	t.stats.CompressNs += uint64(time.Since(start))
	return t.encBuf, hashBlob(t.encBuf)
}

// putLocked stores one page. Caller holds mu.
func (t *CompressedTier) putLocked(key Key, kind PoolKind, data []byte) Status {
	t.stats.Puts++
	k := cobjKey{key.Pool, key.Object}
	obj := t.objects[k]
	if old := obj[key.Index]; old != nil {
		// Duplicate put supersedes: drop the old contents first so the
		// replacement cannot be rejected for capacity the old copy holds.
		t.deref(old.blob)
		t.pagesStored--
		t.rawBytes -= mem.Bytes(t.pageSize)
		delete(obj, key.Index)
		t.freeEntry(old)
		if len(obj) == 0 {
			delete(t.objects, k)
			if t.spareObj == nil {
				t.spareObj = obj
			}
			obj = nil
		}
	}
	if t.pagesStored >= t.maxPages {
		t.stats.RejectedFull++
		return ETmem
	}
	enc, hash := t.encode(data)
	blob := t.findBlob(hash, enc)
	if blob != nil {
		t.stats.DedupHits++
		blob.refs++
	} else {
		class := slabClass(len(enc))
		if t.storedBytes+slabClassSize(class) > t.capacity {
			t.stats.RejectedFull++
			return ETmem
		}
		blob = t.allocBlob()
		buf := t.takeBuf(class)
		blob.data = append(buf, enc...)
		blob.hash = hash
		blob.class = class
		blob.refs = 1
		blob.link = t.dedup[hash]
		t.dedup[hash] = blob
		t.uniqueBlobs++
		t.storedBytes += slabClassSize(class)
	}
	e := t.allocEntry()
	e.blob = blob
	e.kind = kind
	if obj == nil {
		obj = t.takeObj()
		t.objects[k] = obj
	}
	obj[key.Index] = e
	t.pagesStored++
	t.rawBytes += mem.Bytes(t.pageSize)
	t.stats.PutsOK++
	return STmem
}

// dropLocked removes one entry (already looked up) from the index. Caller
// holds mu.
func (t *CompressedTier) dropLocked(k cobjKey, idx PageIndex, e *centry) {
	t.deref(e.blob)
	t.pagesStored--
	t.rawBytes -= mem.Bytes(t.pageSize)
	obj := t.objects[k]
	delete(obj, idx)
	if len(obj) == 0 {
		delete(t.objects, k)
		if t.spareObj == nil {
			t.spareObj = obj
		}
	}
	t.freeEntry(e)
}

// getLocked retrieves one page into dst (nil = presence only). Caller holds
// mu. Ephemeral hits are destructive, mirroring the local store; a blob
// that fails to decode is dropped and reads as a miss, so the backend
// untracks the key and falls through to the next tier.
func (t *CompressedTier) getLocked(key Key, dst []byte) Status {
	t.stats.Gets++
	k := cobjKey{key.Pool, key.Object}
	e := t.objects[k][key.Index]
	if e == nil {
		return ETmem
	}
	if dst != nil {
		var n int
		var err error
		if len(e.blob.data) == len(t.zeroEnc) && string(e.blob.data) == string(t.zeroEnc) {
			// Zero-page fast path: no codec call, keeps sim timing clean.
			n = t.pageSize
			clear(dst[:min(len(dst), t.pageSize)])
		} else if len(dst) >= t.pageSize {
			start := time.Now()
			n, err = t.codec.Decode(dst[:t.pageSize], e.blob.data)
			t.stats.DecompressNs += uint64(time.Since(start))
		} else {
			start := time.Now()
			n, err = t.codec.Decode(t.pageBuf, e.blob.data)
			t.stats.DecompressNs += uint64(time.Since(start))
			copy(dst, t.pageBuf[:min(n, len(dst))])
		}
		if err == nil && n != t.pageSize {
			err = fmt.Errorf("tmem: compressed tier: decoded %d bytes, want %d", n, t.pageSize)
		}
		if err != nil {
			// Corrupted blob: never hand back garbage. Drop the entry so the
			// miss is permanent and the caller falls through to lower tiers.
			t.stats.DecodeErrors++
			t.dropLocked(k, key.Index, e)
			return ETmem
		}
	}
	if e.kind == Ephemeral {
		t.dropLocked(k, key.Index, e)
	}
	t.stats.GetsHit++
	return STmem
}

// Put implements Tier.
func (t *CompressedTier) Put(key Key, kind PoolKind, data []byte) Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.putLocked(key, kind, data)
}

// Get implements Tier.
func (t *CompressedTier) Get(key Key, dst []byte) Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.getLocked(key, dst)
}

// PutBatch implements Tier: the whole run moves under one lock
// acquisition, sharing the codec scratch across pages.
func (t *CompressedTier) PutBatch(keys []Key, kinds []PoolKind, datas [][]byte, sts []Status) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, k := range keys {
		var data []byte
		if datas != nil {
			data = datas[i]
		}
		sts[i] = t.putLocked(k, kinds[i], data)
	}
}

// GetBatch implements Tier.
func (t *CompressedTier) GetBatch(keys []Key, dsts [][]byte, sts []Status) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, k := range keys {
		var dst []byte
		if dsts != nil {
			dst = dsts[i]
		}
		sts[i] = t.getLocked(k, dst)
	}
}

// FlushPage implements Tier.
func (t *CompressedTier) FlushPage(key Key) Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.PageFlushes++
	k := cobjKey{key.Pool, key.Object}
	e := t.objects[k][key.Index]
	if e == nil {
		return ETmem
	}
	t.dropLocked(k, key.Index, e)
	return STmem
}

// FlushObject implements Tier.
func (t *CompressedTier) FlushObject(pool PoolID, object ObjectID) (mem.Pages, Status) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.ObjectFlushes++
	k := cobjKey{pool, object}
	obj := t.objects[k]
	if len(obj) == 0 {
		return 0, ETmem
	}
	freed := mem.Pages(0)
	for idx, e := range obj {
		t.dropLocked(k, idx, e)
		freed++
	}
	return freed, STmem
}

// DropPool implements Tier.
func (t *CompressedTier) DropPool(pool PoolID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, obj := range t.objects {
		if k.pool != pool {
			continue
		}
		for idx, e := range obj {
			t.dropLocked(k, idx, e)
		}
	}
}

var _ Tier = (*CompressedTier)(nil)
