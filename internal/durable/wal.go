package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"sync"

	"smartmem/internal/tmem"
)

// WAL record format. Every journaled mutation is one framed, checksummed
// record:
//
//	[u32 payload len][u32 crc32c(payload)][payload = u8 op | body]
//
// all integers big-endian, matching the kvstore wire convention. Bodies:
//
//	opPut         key(16) | u32 data len | data
//	opFlushPage   key(16)
//	opFlushObject u32 pool | u64 object
//	opNewPool     u32 pool | i64 vm | u8 kind
//	opDropPool    u32 pool
//
// Records are appended to segment blobs named wal/<seq, 16 hex>.log and a
// segment is sealed (never written again) once it crosses the configured
// size. A reopened log always starts a fresh segment, so a torn tail in
// the previous segment can never be followed by valid records.
const (
	opPut         byte = 1
	opFlushPage   byte = 2
	opFlushObject byte = 3
	opNewPool     byte = 4
	opDropPool    byte = 5
)

const (
	recHeaderLen = 8
	keyWireLen   = 16
	// putDataOff is where the page bytes start in a framed put record.
	putDataOff = recHeaderLen + 1 + keyWireLen + 4
	// maxRecordLen bounds a payload during replay: anything larger than a
	// maximal put record is corruption, not data, and must not drive a
	// giant allocation.
	maxRecordLen = 1<<20 + 64
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxBlobBytes bounds the blobs this package writes: a page's location
// holds its record's offset in 32 bits.
const maxBlobBytes = 1 << 31

var (
	errWriterClosed = errors.New("durable: wal writer closed")
	// errTruncated: the buffer ends mid-record (torn tail candidate).
	errTruncated = errors.New("durable: truncated record")
	// errCorrupt: the record is structurally invalid or fails its checksum.
	errCorrupt = errors.New("durable: corrupt record")
)

// frameRecord appends [len][crc][payload] to dst.
func frameRecord(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

func appendKey(dst []byte, key tmem.Key) []byte { return key.AppendWire(dst) }

// putRecordLen is the framed length of a put record carrying n page bytes.
func putRecordLen(n int) int { return putDataOff + n }

// record is one decoded WAL record; data aliases the scanned buffer.
type record struct {
	op     byte
	key    tmem.Key
	data   []byte
	pool   tmem.PoolID
	object tmem.ObjectID
	vm     tmem.VMID
	kind   tmem.PoolKind
}

// readRecord decodes the record starting at buf[off:], returning it and
// the offset of the next record. errTruncated means the buffer ran out
// mid-record; errCorrupt means the bytes cannot be a record at all.
func readRecord(buf []byte, off int) (record, int, error) {
	var r record
	if len(buf)-off < recHeaderLen {
		return r, off, errTruncated
	}
	plen := int(binary.BigEndian.Uint32(buf[off:]))
	crc := binary.BigEndian.Uint32(buf[off+4:])
	if plen < 1 || plen > maxRecordLen {
		return r, off, errCorrupt
	}
	if len(buf)-off-recHeaderLen < plen {
		return r, off, errTruncated
	}
	payload := buf[off+recHeaderLen : off+recHeaderLen+plen]
	if crc32.Checksum(payload, crcTable) != crc {
		return r, off, errCorrupt
	}
	next := off + recHeaderLen + plen
	r.op = payload[0]
	body := payload[1:]
	switch r.op {
	case opPut:
		if len(body) < keyWireLen+4 {
			return r, off, errCorrupt
		}
		key, err := tmem.KeyFromWire(body[:keyWireLen])
		if err != nil {
			return r, off, errCorrupt
		}
		dlen := int(binary.BigEndian.Uint32(body[keyWireLen:]))
		if len(body) != keyWireLen+4+dlen {
			return r, off, errCorrupt
		}
		r.key = key
		r.data = body[keyWireLen+4:]
	case opFlushPage:
		if len(body) != keyWireLen {
			return r, off, errCorrupt
		}
		key, err := tmem.KeyFromWire(body)
		if err != nil {
			return r, off, errCorrupt
		}
		r.key = key
	case opFlushObject:
		if len(body) != 12 {
			return r, off, errCorrupt
		}
		r.pool = tmem.PoolID(binary.BigEndian.Uint32(body))
		r.object = tmem.ObjectID(binary.BigEndian.Uint64(body[4:]))
	case opNewPool:
		if len(body) != 13 {
			return r, off, errCorrupt
		}
		r.pool = tmem.PoolID(binary.BigEndian.Uint32(body))
		r.vm = tmem.VMID(binary.BigEndian.Uint64(body[4:]))
		r.kind = tmem.PoolKind(body[12])
		if r.kind != tmem.Persistent && r.kind != tmem.Ephemeral {
			return r, off, errCorrupt
		}
	case opDropPool:
		if len(body) != 4 {
			return r, off, errCorrupt
		}
		r.pool = tmem.PoolID(binary.BigEndian.Uint32(body))
	default:
		return r, off, errCorrupt
	}
	return r, next, nil
}

// --- record builders (payload only; caller frames) ---

func putPayload(dst []byte, key tmem.Key, data []byte) []byte {
	dst = append(dst, opPut)
	dst = appendKey(dst, key)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(data)))
	return append(dst, data...)
}

func flushPagePayload(dst []byte, key tmem.Key) []byte {
	dst = append(dst, opFlushPage)
	return appendKey(dst, key)
}

func flushObjectPayload(dst []byte, pool tmem.PoolID, object tmem.ObjectID) []byte {
	dst = append(dst, opFlushObject)
	dst = binary.BigEndian.AppendUint32(dst, uint32(pool))
	return binary.BigEndian.AppendUint64(dst, uint64(object))
}

func newPoolPayload(dst []byte, pool tmem.PoolID, vm tmem.VMID, kind tmem.PoolKind) []byte {
	dst = append(dst, opNewPool)
	dst = binary.BigEndian.AppendUint32(dst, uint32(pool))
	dst = binary.BigEndian.AppendUint64(dst, uint64(vm))
	return append(dst, byte(kind))
}

func dropPoolPayload(dst []byte, pool tmem.PoolID) []byte {
	dst = append(dst, opDropPool)
	return binary.BigEndian.AppendUint32(dst, uint32(pool))
}

// --- segment naming ---

const walPrefix = "wal/"

func segKey(seq uint64) string { return fmt.Sprintf("wal/%016x.log", seq) }

// segSeq parses a segment key back to its sequence number.
func segSeq(key string) (uint64, bool) {
	name, ok := strings.CutPrefix(key, walPrefix)
	if !ok {
		return 0, false
	}
	name, ok = strings.CutSuffix(name, ".log")
	if !ok || len(name) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(name, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the store's WAL segment sequence numbers, ascending.
func listSegments(blob BlobStore) ([]uint64, error) {
	keys, err := blob.List(walPrefix)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, k := range keys {
		if seq, ok := segSeq(k); ok {
			seqs = append(seqs, seq)
		}
	}
	return seqs, nil
}

// --- writer ---

// walWriter appends framed records to the active segment, rotating at the
// configured size. Appends serialize under mu; fsync runs outside it with
// leader-based group commit: the first caller to need durability syncs
// once for every record appended so far, and concurrent committers piggy-
// back on that one fsync instead of issuing their own.
type walWriter struct {
	blob     BlobStore
	segBytes int64
	// syncOnRotate syncs a segment before sealing it, so sealed segments
	// are always machine-crash durable under the always/interval policies.
	syncOnRotate bool

	mu       sync.Mutex
	app      Appender
	seq      uint64 // active segment sequence number
	size     int64  // bytes appended to the active segment
	nextRec  uint64 // records appended over the writer's lifetime
	segments uint64 // segments ever opened
	bytes    uint64 // total bytes appended

	// group-commit state
	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncedRec uint64 // highest record number known durable
	syncBusy  bool   // a leader fsync is in flight
	fsyncs    uint64
}

// newWALWriter opens a writer on a fresh segment with the given sequence.
func newWALWriter(blob BlobStore, startSeq uint64, segBytes int64, syncOnRotate bool) (*walWriter, error) {
	w := &walWriter{blob: blob, segBytes: segBytes, syncOnRotate: syncOnRotate, seq: startSeq}
	w.syncCond = sync.NewCond(&w.syncMu)
	app, err := blob.Append(segKey(startSeq))
	if err != nil {
		return nil, err
	}
	w.app = app
	w.segments = 1
	return w, nil
}

// append writes nrecs framed records in one blob write and returns the
// last record's number for syncTo plus where the write landed: the segment
// and the offset of framed[0] in it. Rotation happens before the write when
// the active segment is already full, so a write never spans segments.
func (w *walWriter) append(framed []byte, nrecs uint64) (rec, seg uint64, off uint32, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.app == nil {
		return 0, 0, 0, errWriterClosed
	}
	if int64(len(framed)) > maxBlobBytes {
		return 0, 0, 0, fmt.Errorf("durable: %d-byte append exceeds what a page location can address", len(framed))
	}
	if w.size > 0 && w.size+int64(len(framed)) > w.segBytes {
		if err := w.rotateLocked(w.seq + 1); err != nil {
			return 0, 0, 0, err
		}
	}
	if _, err := w.app.Write(framed); err != nil {
		return 0, 0, 0, err
	}
	off = uint32(w.size)
	w.size += int64(len(framed))
	w.bytes += uint64(len(framed))
	w.nextRec += nrecs
	return w.nextRec, w.seq, off, nil
}

// active returns the active segment's sequence number.
func (w *walWriter) active() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// rotateLocked seals the active segment and opens seq as the new one.
func (w *walWriter) rotateLocked(seq uint64) error {
	if w.app != nil {
		if w.syncOnRotate {
			if err := w.app.Sync(); err != nil {
				w.app.Close()
				w.app = nil
				return err
			}
		}
		if err := w.app.Close(); err != nil {
			w.app = nil
			return err
		}
	}
	app, err := w.blob.Append(segKey(seq))
	if err != nil {
		w.app = nil
		return err
	}
	w.app = app
	w.seq = seq
	w.size = 0
	w.segments++
	return nil
}

// A compaction cuts the WAL in three calls, so that the sealed segment's
// fsync runs with no lock held that an append needs:
//
//	w.beginCut()               // no lock held
//	resume, sealed := w.swap() // under the Log's commit lock: no I/O but an open
//	w.seal(sealed)             // no lock held: Sync + Close
//
// beginCut takes the group-commit leadership and seal gives it back. In
// between no syncTo leader can run, so no fsync of the new segment can vouch
// for records that sit unsynced in the one being sealed; committers under
// fsync=always wait out the seal as they would a leader's fsync.
func (w *walWriter) beginCut() {
	w.syncMu.Lock()
	for w.syncBusy {
		w.syncCond.Wait()
	}
	w.syncBusy = true
	w.syncMu.Unlock()
}

// swap opens the next segment and makes it the active one, returning its
// sequence — the compaction cut point: every record appended after swap
// returns lands in a segment >= resume — and the appender it replaced,
// which the caller owes to seal. On an error the writer is unchanged.
func (w *walWriter) swap() (resume uint64, sealed Appender, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.app == nil {
		return 0, nil, errWriterClosed
	}
	app, err := w.blob.Append(segKey(w.seq + 1))
	if err != nil {
		return 0, nil, err
	}
	sealed, w.app = w.app, app
	w.seq++
	w.size = 0
	w.segments++
	return w.seq, sealed, nil
}

// seal makes the segment swap replaced durable (under the policies that
// sync at all) and closes it, then ends the cut beginCut opened; sealed is
// nil when swap failed or was never reached. A failed sync stops the
// writer, as it does in rotateLocked: what the segment holds may not
// survive, so nothing more is acknowledged on top of it.
func (w *walWriter) seal(sealed Appender) error {
	var err error
	if sealed != nil {
		if w.syncOnRotate {
			err = sealed.Sync()
		}
		if cerr := sealed.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			w.mu.Lock()
			if w.app != nil {
				w.app.Close()
				w.app = nil
			}
			w.mu.Unlock()
		}
	}
	w.syncMu.Lock()
	w.syncBusy = false
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
	return err
}

// syncTo blocks until record rec is durable, fsyncing at most once per
// waiting cohort (leader-based group commit).
func (w *walWriter) syncTo(rec uint64) error {
	for {
		w.syncMu.Lock()
		for w.syncedRec < rec && w.syncBusy {
			w.syncCond.Wait()
		}
		if w.syncedRec >= rec {
			w.syncMu.Unlock()
			return nil
		}
		w.syncBusy = true
		w.syncMu.Unlock()

		// Snapshot the appender and high-water mark outside syncMu: the
		// fsync covers every record appended before this instant.
		w.mu.Lock()
		app, top := w.app, w.nextRec
		w.mu.Unlock()
		var err error
		if app != nil {
			err = app.Sync()
		}

		w.syncMu.Lock()
		w.fsyncs++
		if err == nil && top > w.syncedRec {
			w.syncedRec = top
		}
		w.syncBusy = false
		w.syncCond.Broadcast()
		w.syncMu.Unlock()
		if err != nil {
			return err
		}
		// err == nil and syncedRec advanced past rec: done. (Loop guards
		// against a rotation racing the snapshot; in practice one pass.)
		if top >= rec {
			return nil
		}
	}
}

// sync makes everything appended so far durable.
func (w *walWriter) sync() error {
	w.mu.Lock()
	top := w.nextRec
	w.mu.Unlock()
	if top == 0 {
		return nil
	}
	return w.syncTo(top)
}

// close syncs and closes the active segment.
func (w *walWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.app == nil {
		return nil
	}
	serr := w.app.Sync()
	cerr := w.app.Close()
	w.app = nil
	if serr != nil {
		return serr
	}
	return cerr
}

// counters returns a consistent snapshot of the writer's statistics.
func (w *walWriter) counters() (appends, bytes, segments uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextRec, w.bytes, w.segments
}

func (w *walWriter) fsyncCount() uint64 {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.fsyncs
}
