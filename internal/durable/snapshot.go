package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Snapshot layout. A compaction folds the live pages into slab blobs
// under snapshot/<seq, 16 hex>/:
//
//	snapshot/<seq>/0000.slab ... NNNN.slab   records (same codec as the WAL)
//	snapshot/<seq>/MANIFEST                  JSON, written last
//
// <seq> is the WAL resume point: the snapshot plus every WAL segment with
// sequence >= <seq> reconstructs the full state. The MANIFEST is written
// after all slabs (and the blob Put is atomic), so a crash mid-snapshot
// leaves no MANIFEST and recovery simply uses the previous snapshot.
//
// CLEAN is a root-level marker a graceful shutdown writes after a final
// compaction; a boot that finds it pointing at the newest snapshot skips
// the WAL scan entirely (warm restart) and deletes the marker before
// serving, so a later crash is detected as such.

const (
	snapshotPrefix = "snapshot/"
	manifestName   = "MANIFEST"
	cleanKey       = "CLEAN"
)

type manifest struct {
	// WALResume is the first WAL segment sequence to replay on top.
	WALResume uint64 `json:"wal_resume"`
	// Slabs is the number of slab blobs in the snapshot directory.
	Slabs int `json:"slabs"`
	// Pools / Pages / Bytes describe the snapshotted state (informational).
	Pools int    `json:"pools"`
	Pages uint64 `json:"pages"`
	Bytes uint64 `json:"bytes"`
}

type cleanMarker struct {
	// Snapshot is the snapshot sequence the marker vouches for.
	Snapshot uint64 `json:"snapshot"`
}

func snapshotDir(seq uint64) string { return fmt.Sprintf("snapshot/%016x", seq) }

func slabKey(seq uint64, i int) string {
	return fmt.Sprintf("%s/%04d.slab", snapshotDir(seq), i)
}

// snapshotSeq extracts the sequence from a key under snapshot/.
func snapshotSeq(key string) (uint64, bool) {
	rest, ok := strings.CutPrefix(key, snapshotPrefix)
	if !ok {
		return 0, false
	}
	dir, _, ok := strings.Cut(rest, "/")
	if !ok || len(dir) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(dir, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// latestManifest finds the newest snapshot that has a MANIFEST (i.e. was
// completely written). Returns ok=false when no complete snapshot exists.
func latestManifest(blob BlobStore) (seq uint64, mf manifest, ok bool, err error) {
	keys, err := blob.List(snapshotPrefix)
	if err != nil {
		return 0, mf, false, err
	}
	var best uint64
	found := false
	for _, k := range keys {
		if !strings.HasSuffix(k, "/"+manifestName) {
			continue
		}
		if s, kok := snapshotSeq(k); kok && (!found || s > best) {
			best, found = s, true
		}
	}
	if !found {
		return 0, mf, false, nil
	}
	raw, err := blob.Get(snapshotDir(best) + "/" + manifestName)
	if err != nil {
		return 0, mf, false, err
	}
	if err := json.Unmarshal(raw, &mf); err != nil {
		return 0, mf, false, fmt.Errorf("durable: snapshot %016x manifest: %w", best, err)
	}
	return best, mf, true, nil
}

// snapshotState is the cut a compaction takes under the commit lock: the
// pools, one index entry per live page, both in snapshot order once sorted
// (pools by id, pages by pool/object/index), and the sealed blobs that
// hold only live page records, in ascending blob order. The locations stay
// readable while the log moves on: they name sealed segments and the
// snapshot this one replaces, and nothing prunes those before it is done.
type snapshotState struct {
	pools []PoolInfo
	pages []pageRef
	links []linkedBlob
}

// linkedBlob is a blob a snapshot takes whole (see blobUse).
type linkedBlob struct {
	blob uint64 // as in loc
	size int64
}

// writeSnapshot writes the cut as slab blobs and the manifest last,
// returning where each page's record now sits (moved[i] for st.pages[i])
// and each slab's size. The blobs in st.links become slabs as they are —
// blob.Link, no byte read or written, their pages at the same offsets —
// numbered after the copied ones. Every other record is copied: into one
// buffer — pool records framed, page records read straight into it from
// where the log last wrote them — that is handed to blob.Put the moment it
// fills and then reused, so the writer's memory is one slab plus one
// record whatever the state's size; the sorted order makes identical
// states produce identical snapshots. The first failed read, Put or Link
// stops the stream: what it leaves has no MANIFEST, recovery ignores it
// and the next compaction's prune removes it.
func writeSnapshot(blob BlobStore, seq uint64, st snapshotState, rd *pageReader, slabBytes int64, pageSize int) (moved []loc, sizes []int64, err error) {
	buf := make([]byte, 0, int(slabBytes)+putRecordLen(pageSize))
	slabs := 0
	// flush puts the slab in the buffer if it is full, or if it is the last.
	flush := func(last bool) error {
		if len(buf) == 0 || !last && int64(len(buf)) < slabBytes {
			return nil
		}
		if err := blob.Put(slabKey(seq, slabs), buf); err != nil {
			return fmt.Errorf("durable: snapshot %016x slab %d: %w", seq, slabs, err)
		}
		slabs++
		sizes = append(sizes, int64(len(buf)))
		buf = buf[:0]
		return nil
	}

	var payload []byte
	for _, p := range st.pools {
		payload = newPoolPayload(payload[:0], p.ID, p.VM, p.Kind)
		buf = frameRecord(buf, payload)
		if err := flush(false); err != nil {
			return nil, nil, err
		}
	}
	var linked map[uint64]int // blob -> its place in st.links
	if len(st.links) > 0 {
		linked = make(map[uint64]int, len(st.links))
		for j, b := range st.links {
			linked[b.blob] = j
		}
	}
	moved = make([]loc, len(st.pages))
	var bytes uint64
	for i, p := range st.pages {
		bytes += uint64(p.at.n)
		if _, ok := linked[p.at.blob]; ok {
			continue // placed below, once the linked slabs are numbered
		}
		moved[i] = slabLoc(slabs, len(buf), p.at.n)
		if buf, err = rd.appendRecord(buf, p.key, p.at); err != nil {
			return nil, nil, fmt.Errorf("durable: snapshot %016x: %w", seq, err)
		}
		if err := flush(false); err != nil {
			return nil, nil, err
		}
	}
	if err := flush(true); err != nil {
		return nil, nil, err
	}
	copied := slabs
	for _, b := range st.links {
		src := loc{blob: b.blob}.blobKey(rd.snapshot)
		if err := blob.Link(src, slabKey(seq, slabs)); err != nil {
			return nil, nil, fmt.Errorf("durable: snapshot %016x slab %d: link %s: %w", seq, slabs, src, err)
		}
		slabs++
		sizes = append(sizes, b.size)
	}
	if linked != nil {
		for i, p := range st.pages {
			if j, ok := linked[p.at.blob]; ok {
				moved[i] = slabLoc(copied+j, int(p.at.off), p.at.n)
			}
		}
	}
	raw, err := json.Marshal(manifest{
		WALResume: seq,
		Slabs:     slabs,
		Pools:     len(st.pools),
		Pages:     uint64(len(st.pages)),
		Bytes:     bytes,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := blob.Put(snapshotDir(seq)+"/"+manifestName, raw); err != nil {
		return nil, nil, fmt.Errorf("durable: snapshot %016x manifest: %w", seq, err)
	}
	return moved, sizes, nil
}

// dropSnapshotsBefore deletes every complete-or-partial snapshot directory
// with sequence < keep.
func dropSnapshotsBefore(blob BlobStore, keep uint64) error {
	keys, err := blob.List(snapshotPrefix)
	if err != nil {
		return err
	}
	var errs []error
	for _, k := range keys {
		if seq, ok := snapshotSeq(k); ok && seq < keep {
			if err := blob.Delete(k); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// dropSegmentsBefore deletes every WAL segment with sequence < keep.
func dropSegmentsBefore(blob BlobStore, keep uint64) error {
	seqs, err := listSegments(blob)
	if err != nil {
		return err
	}
	var errs []error
	for _, s := range seqs {
		if s < keep {
			if err := blob.Delete(segKey(s)); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// readCleanMarker loads the CLEAN marker if present.
func readCleanMarker(blob BlobStore) (cleanMarker, bool, error) {
	raw, err := blob.Get(cleanKey)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return cleanMarker{}, false, nil
		}
		return cleanMarker{}, false, err
	}
	var m cleanMarker
	if err := json.Unmarshal(raw, &m); err != nil {
		// A garbled marker is treated as absent: fall back to full replay.
		return cleanMarker{}, false, nil
	}
	return m, true, nil
}

func writeCleanMarker(blob BlobStore, snapshot uint64) error {
	raw, err := json.Marshal(cleanMarker{Snapshot: snapshot})
	if err != nil {
		return err
	}
	return blob.Put(cleanKey, raw)
}
