package tmem

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"smartmem/internal/mem"
	"smartmem/internal/metrics"
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
// scratch, page scratch, slab buffers and blob structs recycle through
// tier-owned free lists (the PR 5 discipline), and index leaves through the
// RunIndex's own.

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
// buffer, shared by refs index entries. Blobs whose raw pages' hashes
// collide chain through link.
type cblob struct {
	hash  uint64 // hashBlob of the raw page
	data  []byte // slab buffer, len = encoded size, cap = class size
	class int
	refs  int32
	link  *cblob // hash-bucket collision chain
}

// centry is one stored page in the tier's index: which blob holds its
// contents, and its pool kind.
type centry struct {
	blob *cblob
	kind PoolKind
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

	mu    sync.Mutex
	index RunIndex[centry]
	// dedup maps the raw page's content hash → blob chain; a chain matches
	// on the encoded bytes. The codec is deterministic and a blob decodes
	// back to its page, so encoded equality is raw equality. Keying by the
	// raw page lets a put on a full arena see that no blob can hold it
	// before it pays for an encode (putLocked).
	dedup map[uint64]*cblob

	// Free lists (the PR 5 zero-alloc discipline): per-class slab buffers,
	// blob structs, and the encode/page scratch buffers.
	freeBufs  [slabClasses][][]byte
	freeBlobs *cblob
	encBuf    []byte
	pageBuf   []byte

	// zeroEnc and zeroHash are the precomputed encoding and raw hash of the
	// all-zero page: the simulator's meta stores pass nil page data
	// everywhere, and a nil put must neither touch the codec (keeps
	// codec-ns counters deterministic) nor depend on scratch contents.
	zeroEnc  []byte
	zeroHash uint64

	// Accounting, guarded by mu. The pages stored are index.Len().
	uniqueBlobs int64
	storedBytes mem.Bytes // charged slab class sizes, counted once per blob

	stats CompressedTierStats
}

// CompressedTierStats extends the generic tier counters with the
// compression and dedup accounting of a CompressedTier snapshot; Fields
// says what each field counts.
type CompressedTierStats struct {
	TierStats

	PagesStored  mem.Pages
	UniqueBlobs  int64
	RawBytes     mem.Bytes
	StoredBytes  mem.Bytes
	DedupHits    uint64
	RejectedFull uint64
	DecodeErrors uint64
	CompressNs   uint64
	DecompressNs uint64
}

// Fields lists the tier counters, then the compression accounting
// (metrics.Block).
func (s *CompressedTierStats) Fields(v metrics.Visitor) {
	s.TierStats.Fields(v)
	v.Int64("pages_stored", "Pages resident in the compressed tier.", metrics.Gauge, (*int64)(&s.PagesStored))
	v.Int64("unique_blobs", "Unique compressed blobs after dedup.", metrics.Gauge, &s.UniqueBlobs)
	v.Int64("raw_bytes", "Uncompressed bytes of the stored pages.", metrics.Gauge, (*int64)(&s.RawBytes))
	v.Int64("stored_bytes", "Charged slab bytes, counted once per blob.", metrics.Gauge, (*int64)(&s.StoredBytes))
	v.Uint64("dedup_hits", "Puts that landed on an existing blob.", metrics.Counter, &s.DedupHits)
	v.Uint64("rejected_full", "Puts rejected on arena or page-count exhaustion.", metrics.Counter, &s.RejectedFull)
	v.Uint64("decode_errors", "Stored blobs that failed to decode on a get (dropped).", metrics.Counter, &s.DecodeErrors)
	v.Uint64("compress", "Codec encode time.", metrics.WallNanos, &s.CompressNs)
	v.Uint64("decompress", "Codec decode time.", metrics.WallNanos, &s.DecompressNs)
}

// Ratio returns the effective compression ratio RawBytes/StoredBytes
// (dedup included), or 0 when nothing is stored.
func (s CompressedTierStats) Ratio() float64 {
	if s.StoredBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.StoredBytes)
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
		dedup:    make(map[uint64]*cblob),
		pageBuf:  make([]byte, cfg.PageSize),
	}
	t.zeroEnc = codec.Encode(nil, t.pageBuf)
	t.zeroHash = hashBlob(t.pageBuf)
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
	s.PagesStored = t.pagesStored()
	s.UniqueBlobs = t.uniqueBlobs
	s.RawBytes = mem.Bytes(t.pageSize) * mem.Bytes(s.PagesStored)
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
	stored := t.pagesStored()
	if stored == 0 {
		return capPages
	}
	per := t.storedBytes / mem.Bytes(stored)
	var eff mem.Pages
	if per == 0 {
		eff = t.maxPages // pure dedup so far: only the page cap binds
	} else {
		eff = stored + mem.Pages((t.capacity-t.storedBytes)/per)
	}
	if eff > t.maxPages {
		eff = t.maxPages
	}
	return eff
}

// pagesStored is the number of pages the tier holds. Caller holds mu.
func (t *CompressedTier) pagesStored() mem.Pages { return mem.Pages(t.index.Len()) }

// --- slab / blob recycling (caller holds mu) ---

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

// findBlob looks up a blob with the given raw hash and encoded contents.
func (t *CompressedTier) findBlob(hash uint64, enc []byte) *cblob {
	for b := t.dedup[hash]; b != nil; b = b.link {
		if len(b.data) == len(enc) && string(b.data) == string(enc) {
			return b
		}
	}
	return nil
}

// stage returns the page as the codec sees it and its content hash: nil
// stays nil (the all-zero page), and a short caller buffer is staged
// through pageBuf so it encodes (and later decodes) as exactly one
// zero-padded page. Caller holds mu; the returned slice may alias tier
// scratch until the next stage.
func (t *CompressedTier) stage(data []byte) ([]byte, uint64) {
	if data == nil {
		return nil, t.zeroHash
	}
	src := data
	if len(data) != t.pageSize {
		n := copy(t.pageBuf, data)
		clear(t.pageBuf[n:])
		src = t.pageBuf
	}
	return src, hashBlob(src)
}

// encode compresses a staged page (nil = the all-zero page) into the
// tier's scratch. Caller holds mu; the returned slice aliases tier scratch
// and is only valid until the next encode.
func (t *CompressedTier) encode(src []byte) []byte {
	if src == nil {
		return t.zeroEnc
	}
	start := time.Now()
	t.encBuf = t.codec.Encode(t.encBuf[:0], src)
	t.stats.CompressNs += uint64(time.Since(start))
	return t.encBuf
}

// putLocked stores one page. Caller holds mu.
func (t *CompressedTier) putLocked(key Key, kind PoolKind, data []byte) Status {
	t.stats.Puts++
	// Duplicate put supersedes: drop the old contents first so the
	// replacement cannot be rejected for capacity the old copy holds.
	t.dropLocked(key)
	if t.pagesStored() >= t.maxPages {
		t.stats.RejectedFull++
		return ETmem
	}
	src, hash := t.stage(data)
	if t.capacity-t.storedBytes < slabClassSize(0) && t.dedup[hash] == nil {
		// Not even the smallest blob fits, and no blob was encoded from a
		// page with this hash, so none can equal this page's encoding: the
		// put could only end in the rejection below. Skip the codec.
		t.stats.RejectedFull++
		return ETmem
	}
	enc := t.encode(src)
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
	e, _ := t.index.Insert(key)
	*e = centry{blob: blob, kind: kind}
	t.stats.PutsOK++
	return STmem
}

// dropLocked removes key's page, if the tier holds it, and reports whether
// it did. Caller holds mu.
func (t *CompressedTier) dropLocked(key Key) bool {
	e, ok := t.index.Delete(key)
	if ok {
		t.deref(e.blob)
	}
	return ok
}

// getLocked retrieves one page into dst (nil = presence only). Caller holds
// mu. Ephemeral hits are destructive, mirroring the local store; a blob
// that fails to decode is dropped and reads as a miss, so the backend
// untracks the key and falls through to the next tier.
func (t *CompressedTier) getLocked(key Key, dst []byte) Status {
	t.stats.Gets++
	e := t.index.Get(key)
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
			t.dropLocked(key)
			return ETmem
		}
	}
	if e.kind == Ephemeral {
		t.dropLocked(key)
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
	if !t.dropLocked(key) {
		return ETmem
	}
	return STmem
}

// FlushObject implements Tier. It walks the whole index: no workload
// flushes objects, so it keeps no per-object list.
func (t *CompressedTier) FlushObject(pool PoolID, object ObjectID) (mem.Pages, Status) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.ObjectFlushes++
	freed := mem.Pages(0)
	for k := range t.index.All {
		if k.Pool == pool && k.Object == object {
			t.dropLocked(k)
			freed++
		}
	}
	if freed == 0 {
		return 0, ETmem
	}
	return freed, STmem
}

// DropPool implements Tier: one walk of the index, at VM shutdown.
func (t *CompressedTier) DropPool(pool PoolID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := range t.index.All {
		if k.Pool == pool {
			t.dropLocked(k)
		}
	}
}

var _ Tier = (*CompressedTier)(nil)
