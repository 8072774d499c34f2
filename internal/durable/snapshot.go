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
// pools and one index entry per live page, both in snapshot order once
// sorted (pools by id, pages by pool/object/index). The locations stay
// readable while the log moves on: they name sealed segments and the
// snapshot this one replaces, and nothing prunes those before it is done.
type snapshotState struct {
	pools []PoolInfo
	pages []pageRef
}

// writeSnapshot streams the cut into slab blobs of roughly slabBytes each
// and writes the manifest last, returning where each page's record now
// sits (moved[i] for st.pages[i]). Records go into one buffer — pool
// records framed, page records read straight into it from where the log
// last wrote them — that is handed to blob.Put the moment it fills and
// then reused, so the writer's memory is one slab plus one record whatever
// the state's size; the sorted order makes identical states produce
// identical snapshots. The first failed read or Put stops the stream: what
// it leaves has no MANIFEST, recovery ignores it and the next compaction's
// prune removes it.
func writeSnapshot(blob BlobStore, seq uint64, st snapshotState, rd *pageReader, slabBytes int64, pageSize int) (moved []loc, err error) {
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
		buf = buf[:0]
		return nil
	}

	var payload []byte
	for _, p := range st.pools {
		payload = newPoolPayload(payload[:0], p.ID, p.VM, p.Kind)
		buf = frameRecord(buf, payload)
		if err := flush(false); err != nil {
			return nil, err
		}
	}
	moved = make([]loc, len(st.pages))
	var bytes uint64
	for i, p := range st.pages {
		moved[i] = slabLoc(slabs, len(buf), p.at.n)
		if buf, err = rd.appendRecord(buf, p.key, p.at); err != nil {
			return nil, fmt.Errorf("durable: snapshot %016x: %w", seq, err)
		}
		if err := flush(false); err != nil {
			return nil, err
		}
		bytes += uint64(p.at.n)
	}
	if err := flush(true); err != nil {
		return nil, err
	}
	raw, err := json.Marshal(manifest{
		WALResume: seq,
		Slabs:     slabs,
		Pools:     len(st.pools),
		Pages:     uint64(len(st.pages)),
		Bytes:     bytes,
	})
	if err != nil {
		return nil, err
	}
	if err := blob.Put(snapshotDir(seq)+"/"+manifestName, raw); err != nil {
		return nil, fmt.Errorf("durable: snapshot %016x manifest: %w", seq, err)
	}
	return moved, nil
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
