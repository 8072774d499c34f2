package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Snapshot layout. A compaction folds the live mirror into slab blobs
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
// pools and one reference per live page, both in snapshot order (pools by
// id, pages by pool/object/index). The page slices are the mirror's own —
// immutable, so they stay valid while the mirror moves on.
type snapshotState struct {
	pools []PoolInfo
	pages []pageRef
}

// writeSnapshot streams the cut into slab blobs of roughly slabBytes each
// and writes the manifest last. Records are framed into one buffer that is
// handed to blob.Put the moment it fills and then reused, so the writer's
// memory is one slab plus one record whatever the state's size; the sorted
// order makes identical states produce identical snapshots. The first
// failed Put stops the stream: what it leaves has no MANIFEST, recovery
// ignores it and the next compaction's prune removes it.
func writeSnapshot(blob BlobStore, seq uint64, st snapshotState, slabBytes int64, pageSize int) error {
	maxRecord := recHeaderLen + 1 + keyWireLen + 4 + pageSize
	buf := make([]byte, 0, int(slabBytes)+maxRecord)
	payload := make([]byte, 0, maxRecord)
	slabs := 0
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if err := blob.Put(slabKey(seq, slabs), buf); err != nil {
			return fmt.Errorf("durable: snapshot %016x slab %d: %w", seq, slabs, err)
		}
		slabs++
		buf = buf[:0]
		return nil
	}
	emit := func() error {
		buf = frameRecord(buf, payload)
		if int64(len(buf)) >= slabBytes {
			return flush()
		}
		return nil
	}

	for _, p := range st.pools {
		payload = newPoolPayload(payload[:0], p.ID, p.VM, p.Kind)
		if err := emit(); err != nil {
			return err
		}
	}
	var bytes uint64
	for _, p := range st.pages {
		payload = putPayload(payload[:0], p.key, p.data)
		if err := emit(); err != nil {
			return err
		}
		bytes += uint64(len(p.data))
	}
	if err := flush(); err != nil {
		return err
	}
	raw, err := json.Marshal(manifest{
		WALResume: seq,
		Slabs:     slabs,
		Pools:     len(st.pools),
		Pages:     uint64(len(st.pages)),
		Bytes:     bytes,
	})
	if err != nil {
		return err
	}
	if err := blob.Put(snapshotDir(seq)+"/"+manifestName, raw); err != nil {
		return fmt.Errorf("durable: snapshot %016x manifest: %w", seq, err)
	}
	return nil
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
