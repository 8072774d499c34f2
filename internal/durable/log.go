package durable

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"smartmem/internal/metrics"
	"smartmem/internal/tmem"
)

// FsyncPolicy selects when WAL appends are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncInterval syncs on a wall-clock ticker (default 100ms): a
	// machine crash loses at most the last interval, a process kill loses
	// nothing (appends hit the kernel synchronously).
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways group-commits every mutation: the call returns only
	// after its record is fsynced. Concurrent writers share one fsync.
	FsyncAlways
	// FsyncOff never syncs (beyond segment seals and close). The
	// deterministic simulator mode: no timers, no fsync counters.
	FsyncOff
)

// ParseFsync maps the -fsync flag spelling to a policy.
func ParseFsync(s string) (FsyncPolicy, error) {
	switch s {
	case "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, interval or off)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncInterval:
		return "interval"
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// Options configures a Log.
type Options struct {
	// Blob is the persistence backend. Required.
	Blob BlobStore
	// PageSize bounds a page record's data length. Required.
	PageSize int
	// CompactBytes triggers a compaction after this many WAL bytes since
	// the last snapshot. Default 64 MiB; <0 disables automatic compaction
	// (explicit Compact still works).
	CompactBytes int64
	// Fsync is the commit durability policy.
	Fsync FsyncPolicy
	// InlineCompact runs compactions synchronously inside the mutating
	// call instead of on a background goroutine — the deterministic
	// simulator mode (no goroutine scheduling in the counters).
	InlineCompact bool

	// The package's tests shrink these to reach many segments, slabs and
	// fsyncs with little data; every Log outside them runs the defaults.

	// segmentBytes seals a WAL segment once it crosses this size.
	// Default 4 MiB, at most 2 GiB (a page's location is a 32-bit offset).
	segmentBytes int64
	// slabBytes splits snapshots into blobs of roughly this size.
	// Default 1 MiB, at most 2 GiB.
	slabBytes int64
	// fsyncEvery is the FsyncInterval period. Default 100ms.
	fsyncEvery time.Duration
}

func (o Options) withDefaults() (Options, error) {
	if o.Blob == nil {
		return o, errors.New("durable: Options.Blob is required")
	}
	if o.PageSize <= 0 {
		return o, errors.New("durable: Options.PageSize must be positive")
	}
	if o.segmentBytes <= 0 {
		o.segmentBytes = 4 << 20
	}
	if o.CompactBytes == 0 {
		o.CompactBytes = 64 << 20
	}
	if o.slabBytes <= 0 {
		o.slabBytes = 1 << 20
	}
	o.segmentBytes = min(o.segmentBytes, maxBlobBytes)
	o.slabBytes = min(o.slabBytes, maxBlobBytes)
	if o.fsyncEvery <= 0 {
		o.fsyncEvery = 100 * time.Millisecond
	}
	return o, nil
}

// Stats are a Log's cumulative counters plus its live-state gauges; Fields
// says what each one counts. CompactNanos and Compacting stay zero under
// InlineCompact, the deterministic mode, which reads no clock.
type Stats struct {
	Appends       uint64
	AppendedBytes uint64
	Fsyncs        uint64
	Segments      uint64
	Compactions   uint64
	SnapshotPages uint64
	Pools         uint64
	PagesLive     uint64
	BytesLive     uint64
	Errors        uint64 // see Log.Err
	CompactNanos  uint64
	Compacting    bool
}

// Fields lists the journal's counters and gauges once for every exporter
// (metrics.Block).
func (s *Stats) Fields(v metrics.Visitor) {
	v.Uint64("wal_appends", "Records appended to the write-ahead log.", metrics.Counter, &s.Appends)
	v.Uint64("wal_bytes", "Bytes appended to the write-ahead log.", metrics.Counter, &s.AppendedBytes)
	v.Uint64("fsyncs", "fsync calls issued by the journal (group commit: at most one per append).", metrics.Counter, &s.Fsyncs)
	v.Uint64("segments_opened", "WAL segments opened over the log's lifetime.", metrics.Counter, &s.Segments)
	v.Uint64("compactions", "Snapshot compactions completed.", metrics.Counter, &s.Compactions)
	v.Uint64("snapshot_pages", "Pages in the latest snapshot.", metrics.Gauge, &s.SnapshotPages)
	v.Uint64("pools", "Live persistent pools in the journal.", metrics.Gauge, &s.Pools)
	v.Uint64("pages_live", "Pages the journal holds live.", metrics.Gauge, &s.PagesLive)
	v.Uint64("bytes_live", "Page bytes the live index entries locate on the blob store.", metrics.Gauge, &s.BytesLive)
	v.Uint64("journal_errors", "Journal blob I/O failures (append, sync, snapshot or page read).", metrics.Counter, &s.Errors)
	v.Uint64("compaction", "Wall time spent inside compactions.", metrics.WallNanos, &s.CompactNanos)
	v.Bool("compacting", "1 while a compaction is writing a snapshot.", metrics.Gauge, &s.Compacting)
}

// RecoveryInfo describes what Open found and replayed.
type RecoveryInfo struct {
	// CleanShutdown: a CLEAN marker matched the newest snapshot, so the
	// WAL scan was skipped entirely (warm restart).
	CleanShutdown bool
	// SnapshotLoaded / SnapshotSeq / SnapshotPages describe the snapshot
	// the state was seeded from, if any.
	SnapshotLoaded bool
	SnapshotSeq    uint64
	SnapshotPages  uint64
	// WALSegments / WALRecords count the replayed tail.
	WALSegments int
	WALRecords  uint64
	// TornTail: the final segment ended mid-record; the partial record
	// was discarded (tolerated — a crash mid-append).
	TornTail bool
	// CorruptRecords: a checksum or structural failure before the final
	// segment's tail. Replay stops at the failure (prefix consistency)
	// and this counts the segments' remaining bytes as lost.
	CorruptRecords uint64
	// Pools / PagesLive are the recovered state's gauges.
	Pools     int
	PagesLive uint64
}

type poolMeta struct {
	vm   tmem.VMID
	kind tmem.PoolKind
}

// PoolInfo is one recovered pool, for replaying into a backend.
type PoolInfo struct {
	ID   tmem.PoolID
	VM   tmem.VMID
	Kind tmem.PoolKind
}

var errClosed = errors.New("durable: log closed")

// Log is the durable journal: a segmented WAL recording every mutation of
// the persistent pages, periodic slab snapshots that let the WAL be pruned,
// and an in-memory index from each live page's key to the record on the
// blob store that holds its bytes (see loc). It keeps no page bytes of its
// own. Its first failed WAL write or fsync is sticky (see Err). All methods
// are safe for concurrent use.
//
// A location is valid for as long as its blob exists, and blobs go only in
// a compaction's prune, which runs after the index has been moved off them
// and while no RangePages is reading — so passes over many pages read blobs
// outside the lock.
type Log struct {
	opts Options
	w    *walWriter

	mu           sync.Mutex
	pools        map[tmem.PoolID]poolMeta
	index        tmem.RunIndex[loc]  // every live page's record
	uses         map[uint64]*blobUse // by loc.blob: every blob the index names, and the WAL's active segment
	bytesLive    uint64
	walSinceSnap int64
	readers      int // RangePages passes in flight; a compaction ending meanwhile leaves its prune to the next
	closed       bool
	failed       error // the first failed WAL write or fsync; nothing is appended after it

	compactMu     sync.Mutex // serializes compactions
	compactions   uint64     // under mu
	snapshotSeq   uint64     // under mu
	snapshotPages uint64     // under mu
	errors        uint64     // under mu
	compactNanos  uint64     // under mu
	compacting    bool       // under mu

	recovery RecoveryInfo

	scratch []byte // framed-record build buffer, under mu
	payload []byte // payload build buffer (must not alias scratch), under mu

	stop      chan struct{}
	compactCh chan struct{}
	bg        sync.WaitGroup
	stopOnce  sync.Once
}

// Open loads (or initializes) a log from the blob store: newest complete
// snapshot first, then the WAL tail, tolerating a torn final record. A
// CLEAN marker from a graceful shutdown skips the WAL scan; the marker is
// consumed either way, so the next boot after a crash replays properly.
func Open(opts Options) (*Log, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	l := &Log{
		opts:      opts,
		pools:     make(map[tmem.PoolID]poolMeta),
		uses:      make(map[uint64]*blobUse),
		stop:      make(chan struct{}),
		compactCh: make(chan struct{}, 1),
	}
	blob := opts.Blob

	marker, haveMarker, err := readCleanMarker(blob)
	if err != nil {
		return nil, err
	}
	mfSeq, mf, haveMf, err := latestManifest(blob)
	if err != nil {
		return nil, err
	}
	segs, err := listSegments(blob)
	if err != nil {
		return nil, err
	}

	if haveMf {
		if err := l.loadSnapshot(mfSeq, mf); err != nil {
			return nil, err
		}
		l.recovery.SnapshotLoaded = true
		l.recovery.SnapshotSeq = mfSeq
		l.recovery.SnapshotPages = mf.Pages
		l.snapshotSeq = mfSeq
		l.snapshotPages = mf.Pages
	}
	if haveMarker && haveMf && marker.Snapshot == mfSeq {
		// Warm restart: the marker vouches that the snapshot captured
		// everything — no WAL bytes to replay.
		l.recovery.CleanShutdown = true
	} else {
		resume := uint64(0)
		if haveMf {
			resume = mf.WALResume
		}
		l.replayTail(blob, segs, resume)
	}
	blob.Delete(cleanKey)

	l.recovery.Pools = len(l.pools)
	l.recovery.PagesLive = uint64(l.index.Len())

	// Always start a fresh segment: appending after a torn tail would put
	// valid records behind a broken one, where replay cannot reach them.
	startSeq := uint64(1)
	if n := len(segs); n > 0 && segs[n-1]+1 > startSeq {
		startSeq = segs[n-1] + 1
	}
	if haveMf && mfSeq+1 > startSeq {
		startSeq = mfSeq + 1
	}
	w, err := newWALWriter(blob, startSeq, opts.segmentBytes, opts.Fsync != FsyncOff)
	if err != nil {
		return nil, err
	}
	l.w = w

	if opts.Fsync == FsyncInterval {
		l.bg.Add(1)
		go l.fsyncLoop()
	}
	if !opts.InlineCompact && opts.CompactBytes > 0 {
		l.bg.Add(1)
		go l.compactLoop()
	}
	return l, nil
}

// loadSnapshot seeds the index from a snapshot's slabs: every record is
// CRC-checked as it is scanned and a put leaves behind only where it sits.
// Snapshots are written atomically (manifest last), so any decode failure
// here is real corruption and aborts the open.
func (l *Log) loadSnapshot(seq uint64, mf manifest) error {
	for i := 0; i < mf.Slabs; i++ {
		buf, err := l.opts.Blob.Get(slabKey(seq, i))
		if err != nil {
			return fmt.Errorf("durable: snapshot %016x slab %d: %w", seq, i, err)
		}
		off := 0
		for off < len(buf) {
			rec, next, err := scanRecord(buf, off)
			if err != nil {
				return fmt.Errorf("durable: snapshot %016x slab %d offset %d: %w", seq, i, off, err)
			}
			l.applyRecord(rec, slabLoc(i, off, uint32(len(rec.data))))
			off = next
		}
		l.use(slabBit | uint64(i)).size = int64(len(buf))
	}
	return nil
}

// replayTail replays every WAL segment with sequence >= resume, in order.
// A decode failure in the final segment is a torn tail (tolerated, replay
// of that segment stops); a failure in any earlier segment is mid-log
// corruption — replay stops entirely, keeping the applied prefix. Either
// way the recovered prefix is made authoritative on the blob store: the
// failing segment is truncated to its valid prefix and any segments after
// it are dropped, so the next boot replays exactly the state this one
// recovered and records appended after recovery stay reachable.
func (l *Log) replayTail(blob BlobStore, segs []uint64, resume uint64) {
	var tail []uint64
	for _, s := range segs {
		if s >= resume {
			tail = append(tail, s)
		}
	}
	for i, s := range tail {
		buf, err := blob.Get(segKey(s))
		if err != nil {
			// A listed segment that cannot be read is corruption unless it
			// simply vanished after listing.
			l.recovery.CorruptRecords++
			l.repairTail(blob, s, nil, 0, tail[i+1:])
			return
		}
		l.recovery.WALSegments++
		off := 0
		for off < len(buf) {
			rec, next, rerr := scanRecord(buf, off)
			if rerr != nil {
				if i == len(tail)-1 {
					l.recovery.TornTail = true
				} else {
					l.recovery.CorruptRecords++
				}
				l.repairTail(blob, s, buf, off, tail[i+1:])
				return
			}
			l.applyRecord(rec, loc{blob: s, off: uint32(off), n: uint32(len(rec.data))})
			l.recovery.WALRecords++
			off = next
		}
		l.use(s).size = int64(len(buf))
	}
}

// repairTail truncates the failing segment to its replayed prefix and
// deletes every segment after it. Best-effort: a failure here only means
// the next boot re-tolerates the same damage.
func (l *Log) repairTail(blob BlobStore, seg uint64, buf []byte, validLen int, later []uint64) {
	if buf != nil {
		blob.Put(segKey(seg), buf[:validLen])
	} else {
		blob.Delete(segKey(seg))
	}
	for _, s := range later {
		blob.Delete(segKey(s))
	}
}

// applyRecord applies one scanned record, found at at, to the recovered
// state. Replay is deliberately forgiving: records referencing unknown
// pools are skipped (they can only follow a tolerated loss) and never panic.
func (l *Log) applyRecord(r record, at loc) {
	switch r.op {
	case opNewPool:
		if _, ok := l.pools[r.pool]; !ok {
			l.pools[r.pool] = poolMeta{vm: r.vm, kind: r.kind}
		}
	case opDropPool:
		l.dropPoolLocked(r.pool)
	case opPut:
		if _, ok := l.pools[r.key.Pool]; !ok {
			return
		}
		if len(r.data) > l.opts.PageSize {
			return
		}
		l.storePage(r.key, at)
	case opFlushPage:
		l.erasePage(r.key)
	case opFlushObject:
		l.eraseObject(r.pool, r.object)
	}
}

// --- index mutation helpers (caller holds mu or is in single-threaded
// recovery) ---

// storePage points key at the record just appended (or scanned) at at.
func (l *Log) storePage(key tmem.Key, at loc) {
	v, added := l.index.Insert(key)
	if !added {
		l.unuse(*v)
	}
	*v = at
	l.bytesLive += uint64(at.n)
	l.use(at.blob).live += at.recordLen()
}

// unuse takes the page record at out of the live accounting.
func (l *Log) unuse(at loc) {
	l.bytesLive -= uint64(at.n)
	l.uses[at.blob].live -= at.recordLen()
}

// use returns the accounting entry of blob, making it on first use.
func (l *Log) use(blob uint64) *blobUse {
	u := l.uses[blob]
	if u == nil {
		u = new(blobUse)
		l.uses[blob] = u
	}
	return u
}

// wrote records that blob, a WAL segment, now ends at end.
func (l *Log) wrote(blob uint64, end int64) {
	if u := l.use(blob); u.size != unsized {
		u.size = end
	}
}

func (l *Log) erasePage(key tmem.Key) bool {
	at, ok := l.index.Delete(key)
	if ok {
		l.unuse(at)
	}
	return ok
}

// eraseObject erases an object's pages and returns how many there were. It
// walks the whole index: no workload flushes objects.
func (l *Log) eraseObject(pool tmem.PoolID, object tmem.ObjectID) int {
	n := 0
	for k := range l.index.All {
		if k.Pool == pool && k.Object == object {
			l.erasePage(k)
			n++
		}
	}
	return n
}

// dropPoolLocked forgets a pool and erases its pages in one walk of the
// index, at VM shutdown.
func (l *Log) dropPoolLocked(pool tmem.PoolID) bool {
	if _, ok := l.pools[pool]; !ok {
		return false
	}
	delete(l.pools, pool)
	for k := range l.index.All {
		if k.Pool == pool {
			l.erasePage(k)
		}
	}
	return true
}

// --- journaled mutations ---
//
// Every mutation runs the same sequence: lockOpen, append one framed write
// (journalLocked), apply it to the index, finish. The log's first failed
// WAL write or fsync is sticky: after it the log appends nothing, every
// mutation returns that failure, and the flushes still take their keys out
// of the index, so no read serves a page the caller has flushed. A
// PutBatch that holds no page to journal is no mutation: it returns nil.

// lockOpen takes mu for a mutation and returns what stops it from
// appending: errClosed, or the journal's failure. Caller ends with finish.
func (l *Log) lockOpen() error {
	l.mu.Lock()
	if l.closed {
		return errClosed
	}
	return l.failed
}

// finish releases mu and commits record rec — enforces the fsync policy
// for it, then triggers a compaction if the WAL has grown past the
// threshold. rec is 0 when the mutation appended nothing.
func (l *Log) finish(rec uint64, err error) error {
	if err != nil || rec == 0 {
		l.mu.Unlock()
		return err
	}
	compact := l.compactDue()
	l.mu.Unlock()
	if l.opts.Fsync == FsyncAlways {
		if err := l.w.syncTo(rec); err != nil {
			l.fail(err)
			return err
		}
	}
	if compact {
		l.triggerCompact()
	}
	return nil
}

// journalLocked appends framed, nrecs records built in l.scratch, and
// returns the last record's number and where framed landed. A failed
// append is the log's failure: the active segment may now end in part of
// a record, so it is never linked either. Caller holds mu.
func (l *Log) journalLocked(framed []byte, nrecs uint64) (rec uint64, at loc, err error) {
	l.scratch = framed // keep the grown buffer for the next call
	rec, at.blob, at.off, err = l.w.append(framed, nrecs)
	if err != nil {
		l.failLocked(err)
		l.use(l.w.active()).size = unsized
		return 0, loc{}, err
	}
	l.wrote(at.blob, int64(at.off)+int64(len(framed)))
	l.walSinceSnap += int64(len(framed))
	return rec, at, nil
}

// journalOneLocked frames payload, built on l.payload, and appends it.
func (l *Log) journalOneLocked(payload []byte) (uint64, error) {
	l.payload = payload // keep the grown buffer for the next call
	rec, _, err := l.journalLocked(frameRecord(l.scratch[:0], payload), 1)
	return rec, err
}

// failLocked counts a failed WAL write or fsync; the first one becomes the
// log's failure. Caller holds mu.
func (l *Log) failLocked(err error) {
	l.errors++
	if l.failed == nil {
		l.failed = fmt.Errorf("durable: journal failed: %w", err)
	}
}

func (l *Log) fail(err error) {
	l.mu.Lock()
	l.failLocked(err)
	l.mu.Unlock()
}

// Err returns the journal's failure: the first WAL write or fsync that
// failed, after which the log appends nothing. It is nil while the journal
// is healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

func (l *Log) noteError() {
	l.mu.Lock()
	l.errors++
	l.mu.Unlock()
}

// compactDue reports whether the WAL crossed the compaction threshold;
// caller holds mu.
func (l *Log) compactDue() bool {
	return l.opts.CompactBytes > 0 && l.walSinceSnap >= l.opts.CompactBytes
}

func (l *Log) triggerCompact() {
	if l.opts.InlineCompact {
		l.Compact()
		return
	}
	select {
	case l.compactCh <- struct{}{}:
	default:
	}
}

// NewPool journals the creation of a persistent pool under its assigned
// id. Ephemeral pools are not durable and are ignored.
func (l *Log) NewPool(id tmem.PoolID, vm tmem.VMID, kind tmem.PoolKind) error {
	if kind != tmem.Persistent {
		return nil
	}
	err := l.lockOpen()
	var rec uint64
	if _, dup := l.pools[id]; dup && err == nil {
		err = fmt.Errorf("durable: pool %d already journaled", id)
	}
	if err == nil {
		if rec, err = l.journalOneLocked(newPoolPayload(l.payload[:0], id, vm, kind)); err == nil {
			l.pools[id] = poolMeta{vm: vm, kind: kind}
		}
	}
	return l.finish(rec, err)
}

// HasPool reports whether the pool is journaled (i.e. persistent).
func (l *Log) HasPool(id tmem.PoolID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.pools[id]
	return ok
}

// DropPool journals a pool destruction and erases its pages. A pool the
// log never saw is a no-op.
func (l *Log) DropPool(id tmem.PoolID) error {
	err := l.lockOpen()
	var rec uint64
	if _, ok := l.pools[id]; ok && err != errClosed {
		if err == nil {
			rec, err = l.journalOneLocked(dropPoolPayload(l.payload[:0], id))
		}
		l.dropPoolLocked(id)
	}
	return l.finish(rec, err)
}

// Put is PutBatch with a batch of one accepted page.
func (l *Log) Put(key tmem.Key, data []byte) error {
	return l.PutBatch([]tmem.Key{key}, [][]byte{data}, []tmem.Status{tmem.STmem})
}

// PutBatch journals the accepted pages of the log's pools — the keys whose
// status is STmem and whose pool the log holds — as one append and one
// commit, and indexes them where their records landed; every other key is
// skipped. If those pages cannot be journaled — the append or the commit's
// fsync fails, the journal has already failed or is closed, or a page is
// longer than the page size — none of them is: their statuses become ETmem,
// the index holds none of them, and the error is returned.
func (l *Log) PutBatch(keys []tmem.Key, datas [][]byte, sts []tmem.Status) error {
	if !slices.Contains(sts, tmem.STmem) {
		return nil // nothing accepted: no lock to take
	}
	err := l.lockOpen()
	holds := func(i int) bool {
		_, ok := l.pools[keys[i].Pool]
		return sts[i] == tmem.STmem && ok
	}
	framed, n := l.scratch[:0], uint64(0)
	for i, key := range keys {
		if !holds(i) {
			continue
		}
		n++
		if err == nil && len(datas[i]) > l.opts.PageSize {
			err = fmt.Errorf("durable: page %v: %d bytes exceeds page size %d", key, len(datas[i]), l.opts.PageSize)
		}
		if err == nil {
			l.payload = putPayload(l.payload[:0], key, datas[i])
			framed = frameRecord(framed, l.payload)
		}
	}
	var rec uint64
	var at loc
	if n == 0 {
		err = nil
	} else if err == nil {
		if rec, at, err = l.journalLocked(framed, n); err == nil {
			cur := at
			for i, key := range keys {
				if holds(i) {
					cur.n = uint32(len(datas[i]))
					l.storePage(key, cur)
					cur.off += uint32(putRecordLen(len(datas[i])))
				}
			}
		}
	}
	if err != nil {
		for i := range keys {
			if holds(i) {
				sts[i] = tmem.ETmem
			}
		}
	}
	if err = l.finish(rec, err); err != nil && rec != 0 {
		l.takeBack(keys, sts, at, uint32(len(framed)))
	}
	return err
}

// takeBack undoes a PutBatch whose commit failed after its records were
// appended at [at.off, at.off+size) of WAL segment at.blob and indexed: the
// keys still indexed inside that range leave the index and turn ETmem. A
// page that a concurrent call replaced, flushed or compacted since is not
// the batch's to take back. A key the batch put twice is indexed at its
// last record, so every status is settled before any key leaves the index.
func (l *Log) takeBack(keys []tmem.Key, sts []tmem.Status, at loc, size uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ours := func(key tmem.Key) bool {
		v := l.index.Get(key)
		return v != nil && v.blob == at.blob && v.off >= at.off && v.off-at.off < size
	}
	for i, key := range keys {
		if sts[i] == tmem.STmem && ours(key) {
			sts[i] = tmem.ETmem
		}
	}
	for _, key := range keys {
		if ours(key) {
			l.erasePage(key)
		}
	}
}

// FlushPage journals a page invalidation. Pages the journal does not hold
// are a no-op (nothing to make durable), reported via removed=false.
func (l *Log) FlushPage(key tmem.Key) (removed bool, err error) {
	err = l.lockOpen()
	var rec uint64
	if removed = l.erasePage(key); removed && err == nil {
		rec, err = l.journalOneLocked(flushPagePayload(l.payload[:0], key))
	}
	return removed, l.finish(rec, err)
}

// FlushObject journals an object invalidation, returning how many pages
// the journal dropped. Unknown objects are a no-op.
func (l *Log) FlushObject(pool tmem.PoolID, object tmem.ObjectID) (int, error) {
	err := l.lockOpen()
	var rec uint64
	n := l.eraseObject(pool, object)
	if n > 0 && err == nil {
		rec, err = l.journalOneLocked(flushObjectPayload(l.payload[:0], pool, object))
	}
	return n, l.finish(rec, err)
}

// --- reads ---

// Get reads a journaled page back into dst (zero-filling any remainder)
// and reports whether the page exists. dst may be nil for a presence check,
// which like a zero-length page costs no I/O. The read runs under the
// commit lock, which is what keeps the page's blob from being pruned under
// it: Get is the fallback for the few pages the RAM tiers lost across a
// restart, not a serving path. A page that is indexed but cannot be read
// back clean counts in Stats.Errors and reports absent.
func (l *Log) Get(key tmem.Key, dst []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := l.index.Get(key)
	if v == nil {
		return false
	}
	at := *v
	n := 0
	if at.n > 0 && len(dst) > 0 {
		rd := l.readerLocked()
		var err error
		l.scratch, err = rd.appendRecord(l.scratch[:0], key, at)
		rd.close()
		if err != nil {
			l.errors++
			return false
		}
		n = copy(dst, l.scratch[putDataOff:])
	}
	clear(dst[n:])
	return true
}

// Contains reports whether the journal holds the page.
func (l *Log) Contains(key tmem.Key) bool { return l.Get(key, nil) }

// readerLocked returns a page reader for locations taken from the index
// under the same hold of mu.
func (l *Log) readerLocked() *pageReader {
	return &pageReader{blob: l.opts.Blob, snapshot: l.snapshotSeq}
}

// Pools returns the journaled pools, sorted by id.
func (l *Log) Pools() []PoolInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.poolsLocked()
}

func (l *Log) poolsLocked() []PoolInfo {
	out := make([]PoolInfo, 0, len(l.pools))
	for id, pm := range l.pools {
		out = append(out, PoolInfo{ID: id, VM: pm.vm, Kind: pm.kind})
	}
	slices.SortFunc(out, func(a, b PoolInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// pageRefsLocked returns one reference per live page, in the index's leaf
// order — the only per-page work a reader does under mu. Sort with
// sortPageRefs after releasing it.
func (l *Log) pageRefsLocked() []pageRef {
	refs := make([]pageRef, 0, l.index.Len())
	for k, at := range l.index.All {
		refs = append(refs, pageRef{key: k, at: *at})
	}
	return refs
}

// RangePages calls f for every live page in sorted key order (pool,
// object, index), stopping early if f returns false. Each page is read
// back from the blob store and verified; data is valid only until f
// returns. A page that cannot be read back clean ends the pass with the
// error (counted in Stats.Errors). The pass sees the pages live when it
// began and reads them with no lock held.
func (l *Log) RangePages(f func(key tmem.Key, data []byte) bool) error {
	l.mu.Lock()
	pages, rd := l.pageRefsLocked(), l.readerLocked()
	l.readers++
	l.mu.Unlock()
	defer func() {
		rd.close()
		l.mu.Lock()
		l.readers--
		l.mu.Unlock()
	}()

	sortPageRefs(pages)
	var rec []byte
	for _, p := range pages {
		var err error
		if rec, err = rd.appendRecord(rec[:0], p.key, p.at); err != nil {
			l.noteError()
			return err
		}
		if !f(p.key, rec[putDataOff:]) {
			break
		}
	}
	return nil
}

// PagesLive returns the live-page gauge.
func (l *Log) PagesLive() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(l.index.Len())
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	appends, bytes, segments := l.w.counters()
	fsyncs := l.w.fsyncCount()
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends:       appends,
		AppendedBytes: bytes,
		Fsyncs:        fsyncs,
		Segments:      segments,
		Compactions:   l.compactions,
		SnapshotPages: l.snapshotPages,
		Pools:         uint64(len(l.pools)),
		PagesLive:     uint64(l.index.Len()),
		BytesLive:     l.bytesLive,
		Errors:        l.errors,
		CompactNanos:  l.compactNanos,
		Compacting:    l.compacting,
	}
}

// Recovery returns what Open found and replayed.
func (l *Log) Recovery() RecoveryInfo { return l.recovery }

// Sync forces everything journaled so far to stable storage. It fails
// for good once the journal has failed: a later fsync that succeeds says
// nothing about the pages the failed one may have dropped.
func (l *Log) Sync() error {
	if err := l.w.sync(); err != nil {
		l.fail(err)
	}
	return l.Err()
}

// --- compaction ---

// Compact cuts the WAL, writes every live page into a new snapshot, moves
// the index onto it and prunes what the snapshot supersedes. A sealed blob
// holding only live page records — a WAL segment or a slab of the current
// snapshot — is linked into the snapshot whole; every other live page's
// record is copied. Mutations racing it land in segments at or after the
// cut and replay on top of the snapshot.
//
// The order is cut → seal → link or copy → re-point → prune, and only the
// cut and the re-point hold the commit lock: one open and one index entry
// per live page the first, one index store per page the second. The sealed
// segment's fsync, the page reads and every blob write run outside it.
// Each step leaves a state recovery accepts: a snapshot without its
// MANIFEST is ignored, one with it is complete, and a blob is deleted only
// once neither the MANIFEST's replay nor the index can name it. A log
// whose journal has failed does not compact.
func (l *Log) Compact() error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()

	l.w.beginCut()
	if err := l.lockOpen(); err != nil {
		l.mu.Unlock()
		l.w.seal(nil)
		return err
	}
	var start time.Time
	if !l.opts.InlineCompact {
		start = time.Now()
		l.compacting = true
	}
	resume, sealed, err := l.w.swap()
	var (
		st  snapshotState
		rd  *pageReader
		cut int64
	)
	if err == nil {
		st = snapshotState{pools: l.poolsLocked(), pages: l.pageRefsLocked(), links: l.linkableLocked(resume)}
		rd, cut = l.readerLocked(), l.walSinceSnap
	}
	l.mu.Unlock()

	// The MANIFEST below supersedes the sealed segment, so the segment is
	// made durable first. A failed swap or seal is the WAL's own failure;
	// a failed snapshot write below is not: the old snapshot and the WAL
	// are still whole.
	if serr := l.w.seal(sealed); err == nil {
		err = serr
	}
	walErr := err
	var (
		moved []loc
		sizes []int64
	)
	if err == nil {
		sortPageRefs(st.pages)
		moved, sizes, err = writeSnapshot(l.opts.Blob, resume, st, rd, l.opts.slabBytes, l.opts.PageSize)
		rd.close()
	}

	l.mu.Lock()
	l.endCompactLocked(start)
	if walErr != nil {
		l.failLocked(walErr)
	} else if err != nil {
		l.errors++
	}
	if err != nil {
		l.mu.Unlock()
		return err
	}
	l.repointLocked(st.pages, moved, resume, sizes)
	l.snapshotSeq = resume
	l.snapshotPages = uint64(len(st.pages))
	l.walSinceSnap -= cut
	l.compactions++
	prune := l.readers == 0
	l.mu.Unlock()

	if prune {
		// Best-effort: stale blobs cost space, not correctness, and the
		// next compaction's prune takes whatever this one leaves.
		dropSegmentsBefore(l.opts.Blob, resume)
		dropSnapshotsBefore(l.opts.Blob, resume)
	}
	return nil
}

// linkableLocked lists the blobs below the cut resume — the sealed WAL
// segments and the current snapshot's slabs — that hold only live page
// records, in ascending blob order. Caller holds mu.
func (l *Log) linkableLocked(resume uint64) []linkedBlob {
	var out []linkedBlob
	for blob, u := range l.uses {
		if (blob&slabBit != 0 || blob < resume) && u.linkable() {
			out = append(out, linkedBlob{blob: blob, size: u.size})
		}
	}
	slices.SortFunc(out, func(a, b linkedBlob) int { return cmp.Compare(a.blob, b.blob) })
	return out
}

// repointLocked moves the index onto the snapshot just written: every page
// still at the location the cut saw now lives at moved[i]. A page put again
// since the cut names a segment at or after it and a flushed one is gone;
// both are left alone — the WAL tail replays them on top of the snapshot.
// The blob accounting follows: the new slabs, of the given sizes, replace
// every blob below the cut, none of which the index names any more. A log
// closed meanwhile has no index to move.
func (l *Log) repointLocked(pages []pageRef, moved []loc, resume uint64, sizes []int64) {
	if l.closed {
		return
	}
	live := make([]int64, len(sizes)) // by slab
	for i, p := range pages {
		if at := l.index.Get(p.key); at != nil && *at == p.at {
			*at = moved[i]
			live[moved[i].blob&^slabBit] += moved[i].recordLen()
		}
	}
	for blob := range l.uses {
		if blob&slabBit != 0 || blob < resume {
			delete(l.uses, blob)
		}
	}
	for i, size := range sizes {
		l.uses[slabBit|uint64(i)] = &blobUse{size: size, live: live[i]}
	}
}

// endCompactLocked closes the timed window Compact opened, if it opened
// one (it does not under InlineCompact).
func (l *Log) endCompactLocked(start time.Time) {
	if l.compacting {
		l.compacting = false
		l.compactNanos += uint64(time.Since(start))
	}
}

// --- lifecycle ---

func (l *Log) fsyncLoop() {
	defer l.bg.Done()
	t := time.NewTicker(l.opts.fsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			if err := l.w.sync(); err != nil {
				l.fail(err) // nothing more is appended, so nothing more to sync
				return
			}
		}
	}
}

func (l *Log) compactLoop() {
	defer l.bg.Done()
	for {
		select {
		case <-l.stop:
			return
		case <-l.compactCh:
			l.Compact()
		}
	}
}

func (l *Log) stopBackground() {
	l.stopOnce.Do(func() { close(l.stop) })
	l.bg.Wait()
}

// Close stops background work, syncs and closes the WAL. The blob store
// is left exactly as a crash would: the next Open replays snapshot + WAL.
// A closed log holds no pages: reads report every page absent.
func (l *Log) Close() error {
	l.stopBackground()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closeLocked()
	l.mu.Unlock()
	return l.w.close()
}

// closeLocked marks the log closed and releases the page index: a closed
// log reports every page absent. The pool table stays: Store keeps
// refusing persistent puts through a closed log.
func (l *Log) closeLocked() {
	l.closed = true
	l.index, l.uses = tmem.RunIndex[loc]{}, nil
	l.bytesLive = 0
}

// CloseClean performs a graceful shutdown: a final compaction folds the
// whole state into one snapshot, a CLEAN marker vouches for it, and the
// next Open skips the WAL replay entirely (warm restart).
func (l *Log) CloseClean() error {
	l.stopBackground()
	cerr := l.Compact()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	l.closeLocked()
	snap := l.snapshotSeq
	l.mu.Unlock()
	werr := l.w.close()
	if cerr == nil && werr == nil {
		cerr = writeCleanMarker(l.opts.Blob, snap)
	}
	if cerr != nil {
		return cerr
	}
	return werr
}
