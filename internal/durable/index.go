package durable

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"smartmem/internal/tmem"
)

// loc is an index entry: where a live page's framed put record sits on the
// blob store. The Log keeps one per page and nothing else of it.
type loc struct {
	// blob is a WAL segment's sequence number or, with slabBit set, a
	// slab's number within the newest snapshot. The snapshot's own sequence
	// is Log.snapshotSeq: a compaction moves every slab entry and that
	// field in one critical section, so an entry never names a slab of any
	// other snapshot.
	blob uint64
	off  uint32 // offset of the record's frame header in the blob
	n    uint32 // page data length; a zero-length page is never read
}

const slabBit = 1 << 63

func slabLoc(slab, off int, n uint32) loc {
	return loc{blob: slabBit | uint64(slab), off: uint32(off), n: n}
}

// recordLen is the framed length of the put record at names.
func (at loc) recordLen() int64 { return int64(putRecordLen(int(at.n))) }

// blobUse is what the Log knows of one blob its index may name: the bytes
// written to it, and how many of those are the put records of live pages.
// A sealed blob whose live bytes are all its bytes holds nothing else — no
// pool or flush record, no superseded put — so a compaction can link it
// into the new snapshot instead of copying its pages.
type blobUse struct {
	size int64 // bytes written; unsized once they are not all records
	live int64
}

// unsized marks a blob whose size the Log cannot vouch for — a WAL segment
// an append failed on may hold a partial record — so it is never linked.
const unsized = -1

// linkable reports whether the blob is all live page records.
func (u *blobUse) linkable() bool { return u.size > 0 && u.live == u.size }

// blobKey names the blob at holds, given the snapshot slab entries belong to.
func (at loc) blobKey(snapshot uint64) string {
	if at.blob&slabBit != 0 {
		return slabKey(snapshot, int(at.blob&^slabBit))
	}
	return segKey(at.blob)
}

// scanRecord is readRecord for the scans that build the index: a record
// ending beyond a loc's 32-bit reach is corrupt to them. Nothing this
// package writes comes near it (maxBlobBytes).
func scanRecord(buf []byte, off int) (record, int, error) {
	r, next, err := readRecord(buf, off)
	if err == nil && int64(next) > math.MaxUint32 {
		return r, off, errCorrupt
	}
	return r, next, err
}

// pageRef is one live page as a reader outside the commit lock sees it.
type pageRef struct {
	key tmem.Key
	at  loc
}

// sortPageRefs orders refs by pool, object, index.
func sortPageRefs(refs []pageRef) {
	slices.SortFunc(refs, func(a, b pageRef) int {
		return cmp.Or(
			cmp.Compare(a.key.Pool, b.key.Pool),
			cmp.Compare(a.key.Object, b.key.Object),
			cmp.Compare(a.key.Index, b.key.Index),
		)
	})
}

// maxOpenBlobs bounds the handles one pageReader keeps. A pass in key order
// walks the snapshot's slabs front to back and hops among the WAL segments
// written since (CompactBytes/segmentBytes of them, 16 by default), so this
// many keeps the reopen count near one per blob without approaching a
// process's descriptor limit.
const maxOpenBlobs = 64

// pageReader reads page records back from the blob store for one pass — a
// compaction, a RangePages, a Get — keeping the blobs it has touched open
// so the pass pays one Open per blob, not one per page. A reader holding
// maxOpenBlobs handles closes the one it opened first, so a pass makes the
// same Opens every time. Not safe for concurrent use; close releases the
// handles.
type pageReader struct {
	blob     BlobStore
	snapshot uint64     // the snapshot whose slabs the pass's locs name
	open     []openBlob // first opened first
	payload  []byte
}

type openBlob struct {
	id uint64 // loc.blob
	h  BlobReader
}

func (r *pageReader) handle(at loc) (BlobReader, error) {
	for i := len(r.open) - 1; i >= 0; i-- { // the latest first: a pass reads on in the blob it is in
		if r.open[i].id == at.blob {
			return r.open[i].h, nil
		}
	}
	if len(r.open) >= maxOpenBlobs {
		r.open[0].h.Close()
		r.open = append(r.open[:0], r.open[1:]...)
	}
	h, err := r.blob.Open(at.blobKey(r.snapshot))
	if err != nil {
		return nil, err
	}
	r.open = append(r.open, openBlob{id: at.blob, h: h})
	return h, nil
}

// appendRecord appends the framed put record of the page key, stored at at,
// to dst: read from the blob and verified — frame length, CRC, op, key and
// data length — so neither a rotted byte nor a stale location can pass for
// the page. Its last at.n bytes are the page. A record in a snapshot is
// byte for byte the record in the WAL, which is what lets a compaction copy
// rather than re-frame; a zero-length page is framed here without a read.
func (r *pageReader) appendRecord(dst []byte, key tmem.Key, at loc) ([]byte, error) {
	if at.n == 0 {
		r.payload = putPayload(r.payload[:0], key, nil)
		return frameRecord(dst, r.payload), nil
	}
	h, err := r.handle(at)
	if err != nil {
		return dst, err
	}
	start, size := len(dst), putRecordLen(int(at.n))
	dst = slices.Grow(dst, size)
	framed := dst[start : start+size]
	if n, err := h.ReadAt(framed, int64(at.off)); n < size {
		return dst, fmt.Errorf("durable: page %v: read %s at %d: %w", key, at.blobKey(r.snapshot), at.off, err)
	}
	rec, next, err := readRecord(framed, 0)
	if err != nil || next != size || rec.op != opPut || rec.key != key {
		return dst, fmt.Errorf("durable: page %v: %s at %d does not hold its record: %w", key, at.blobKey(r.snapshot), at.off, errCorrupt)
	}
	return dst[:start+size], nil
}

func (r *pageReader) close() {
	for _, o := range r.open {
		o.h.Close()
	}
	r.open = nil
}
