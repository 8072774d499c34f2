// Run memoization: a content-addressed cache of completed sweep cells.
// The simulator is deterministic — a core.Result is a pure function of the
// job's Fingerprint — so re-runs, figure regeneration, CI smokes and
// widened sweeps can return cached cells instantly and byte-identically
// instead of re-simulating them. The cache reuses the durable.BlobStore
// shape: durable.NewDirStore for an on-disk cache shared across processes,
// durable.NewMemStore for tests.
//
// A cell is stored as the two things callers ask for. The scalar record
// ("memo/<fp>", under 1 KB) is every field of core.Result except Series;
// the series blob ("memo-series/<fp>", ~98 % of a cell's bytes) is the
// per-tick time series. League and times tables aggregate scalars only, so
// their sweeps read the scalar record alone; Memo.Get and the figure paths
// read and validate both.
//
// A third, derived blob serves a whole sweep at once: the pack
// ("memo-pack/<hex sha256 of the sweep's fingerprints in job order>") is the
// sweep's scalar records concatenated in job order, byte for byte. It is a
// hint, like a Bitcask hint file: every record in it is validated as if read
// from its own file, and a cell the pack cannot serve falls back to its
// per-cell record, which stays the source of truth.
package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"sync/atomic"

	"smartmem/internal/core"
	"smartmem/internal/durable"
	"smartmem/internal/metrics"
	"smartmem/internal/sim"
	"smartmem/internal/tmem"
)

// memoMagic heads every scalar record, seriesMagic every series blob.
const (
	memoMagic   = "SMMO"
	seriesMagic = "SMMS"
)

// memoPrefix namespaces the scalar records inside the blob store, so a memo
// cache can share a store with other blobs (List("memo/") finds one key per
// cell). Series blobs and packs live under sibling prefixes, outside that
// listing.
const (
	memoPrefix   = "memo/"
	seriesPrefix = "memo-series/"
	packPrefix   = "memo-pack/"
)

var memoCRC = crc32.MakeTable(crc32.Castagnoli)

// Memo is a content-addressed result cache over a BlobStore. A cell's
// scalar record carries a checksummed self-describing envelope plus the
// length and checksum of its series blob; any validation failure (torn
// write, bit rot, stale format version, key collision, lost series blob)
// reads as a miss and the cell is silently recomputed — a corrupt cache can
// cost time, never correctness.
//
// Memo is safe for concurrent use by all engine workers.
type Memo struct {
	store durable.BlobStore

	hits      atomic.Uint64
	misses    atomic.Uint64
	writes    atomic.Uint64
	corrupt   atomic.Uint64
	writeErrs atomic.Uint64
	bytesRead atomic.Uint64
}

// MemoStats snapshots cache effectiveness counters. Hits, Misses and
// Corrupt count lookups and Writes counts cells, whichever blobs a lookup
// or a store touched.
type MemoStats struct {
	Hits      uint64 `json:"hits"`       // lookups served from cache
	Misses    uint64 `json:"misses"`     // lookups that had to simulate
	Writes    uint64 `json:"writes"`     // cells stored
	Corrupt   uint64 `json:"corrupt"`    // cells present but invalid (recomputed)
	WriteErrs uint64 `json:"write_errs"` // failed best-effort stores
	BytesRead uint64 `json:"bytes_read"` // blob bytes fetched by lookups
}

// NewMemo wraps a blob store as a run cache.
func NewMemo(store durable.BlobStore) *Memo {
	return &Memo{store: store}
}

// OpenDirMemo opens (creating if needed) an on-disk run cache rooted at
// dir. Concurrent processes may share it: blob writes are atomic (temp
// file + rename) and a cell's bytes are a pure function of its key.
func OpenDirMemo(dir string) (*Memo, error) {
	st, err := durable.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	return NewMemo(st), nil
}

// Stats returns a snapshot of the cache counters.
func (m *Memo) Stats() MemoStats {
	return MemoStats{
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Writes:    m.writes.Load(),
		Corrupt:   m.corrupt.Load(),
		WriteErrs: m.writeErrs.Load(),
		BytesRead: m.bytesRead.Load(),
	}
}

// Len returns the number of cells currently stored.
func (m *Memo) Len() (int, error) {
	keys, err := m.store.List(memoPrefix)
	if err != nil {
		return 0, err
	}
	return len(keys), nil
}

func memoKey(fp Fingerprint) string   { return memoPrefix + fp.String() }
func seriesKey(fp Fingerprint) string { return seriesPrefix + fp.String() }

// Get returns the cached result for a fingerprint, or (nil, false) on any
// miss — absent, wrong version, or either blob corrupt. The returned Result
// is freshly decoded on every call; callers own it and may mutate it.
func (m *Memo) Get(fp Fingerprint) (*core.Result, bool) { return m.get(fp, true) }

// get is Get with the series read optional: without it the lookup fetches
// the scalar record alone and the Result's Series is nil.
func (m *Memo) get(fp Fingerprint, withSeries bool) (*core.Result, bool) {
	res, _, ok := m.lookup(fp, withSeries)
	return res, ok
}

// lookup is get that also returns the cell's scalar record, for a pack.
func (m *Memo) lookup(fp Fingerprint, withSeries bool) (*core.Result, []byte, bool) {
	rec, err := m.store.Get(memoKey(fp))
	if err != nil {
		m.misses.Add(1)
		return nil, nil, false
	}
	m.bytesRead.Add(uint64(len(rec)))
	res, err := m.load(fp, rec, withSeries)
	if err != nil {
		// Present but unusable: count it as corruption (checksum, torn
		// write, stale version ...) and fall through to a recompute that
		// will overwrite both blobs.
		m.corrupt.Add(1)
		m.misses.Add(1)
		return nil, nil, false
	}
	m.hits.Add(1)
	return res, rec, true
}

// load decodes a cell's scalar record and, withSeries, reads and attaches
// its series blob.
func (m *Memo) load(fp Fingerprint, rec []byte, withSeries bool) (*core.Result, error) {
	res, ref, err := decodeScalarRecord(fp, rec)
	if err == nil && withSeries && ref.n > 0 {
		// The scalar record is the commit point, so a series blob that is
		// absent behind a valid record is damage, not a plain miss.
		var blob []byte
		if blob, err = m.store.Get(seriesKey(fp)); err == nil {
			m.bytesRead.Add(uint64(len(blob)))
			res.Series, err = decodeSeriesBlob(fp, ref, blob)
		}
	}
	return res, err
}

// Put stores a result under its fingerprint, replacing any existing entry.
func (m *Memo) Put(fp Fingerprint, res *core.Result) error {
	var scratch []byte
	_, err := m.put(fp, res, &scratch)
	return err
}

// put is Put with a caller-recycled encode buffer (the engine passes its
// per-worker scratch so steady-state sweeps hold allocations flat): both
// blobs are encoded into it back to back, once. The series blob is stored
// first and the scalar record last — the commit point, like the MANIFEST of
// a durable snapshot — so a reader never finds a record whose series were
// not yet written. It returns the scalar record, which aliases *scratch.
func (m *Memo) put(fp Fingerprint, res *core.Result, scratch *[]byte) ([]byte, error) {
	buf := (*scratch)[:0]
	if res.Series != nil {
		buf = encodeSeriesBlob(buf, fp, res.Series)
	}
	seriesEnd := len(buf)
	buf = encodeScalarRecord(buf, fp, res, refOf(buf))
	*scratch = buf
	var err error
	if seriesEnd > 0 {
		err = m.store.Put(seriesKey(fp), buf[:seriesEnd])
	}
	if err == nil {
		err = m.store.Put(memoKey(fp), buf[seriesEnd:])
	}
	if err != nil {
		m.writeErrs.Add(1)
		return nil, fmt.Errorf("experiments: memo store %s: %w", fp, err)
	}
	m.writes.Add(1)
	return buf[seriesEnd:], nil
}

// packKey names the pack of a sweep: the hex SHA-256 of its cells'
// fingerprints in job order.
func packKey(fps []Fingerprint) string {
	h := sha256.New()
	for i := range fps {
		h.Write(fps[i][:])
	}
	var sum [sha256.Size]byte
	return packPrefix + hex.EncodeToString(h.Sum(sum[:0]))
}

// recall serves what it can of a sweep from its pack in one read. res[i] is
// cell i's result, and recs[i] its scalar record, where the pack holds a
// record for fps[i] that passes every check a per-cell read makes and (with
// series) whose series blob loads; both are nil for every other cell. Only
// served cells are counted, one hit each: the rest go to the per-cell path,
// which counts them.
func (m *Memo) recall(key string, fps []Fingerprint, withSeries bool) (res []*core.Result, recs [][]byte) {
	res = make([]*core.Result, len(fps))
	recs = make([][]byte, len(fps))
	pack, err := m.store.Get(key)
	if err != nil {
		return res, recs
	}
	m.bytesRead.Add(uint64(len(pack)))
	for i, fp := range fps {
		// A record's own envelope gives its length; once one is cut short
		// the walk has lost its place, and the cells left fall back.
		const lenAt = blobHeadLen + 4
		if len(pack) < lenAt+8 {
			break
		}
		n := binary.LittleEndian.Uint64(pack[lenAt:])
		if n > uint64(len(pack)-lenAt-8) {
			break
		}
		rec := pack[:lenAt+8+int(n)]
		pack = pack[len(rec):]
		if r, err := m.load(fp, rec, withSeries); err == nil {
			res[i], recs[i] = r, rec
			m.hits.Add(1)
		}
	}
	return res, recs
}

// putPack stores a sweep's pack: recs, one scalar record per cell, in job
// order. Like a cell's store it is best-effort.
func (m *Memo) putPack(key string, recs [][]byte) error {
	n := 0
	for _, rec := range recs {
		n += len(rec)
	}
	pack := make([]byte, 0, n)
	for _, rec := range recs {
		pack = append(pack, rec...)
	}
	if err := m.store.Put(key, pack); err != nil {
		m.writeErrs.Add(1)
		return fmt.Errorf("experiments: memo pack store: %w", err)
	}
	return nil
}

// --- blob layouts ---
//
//	scalar record  "SMMO" | u32 version | fingerprint[32] |
//	               u32 crc32c(payload) | u64 len(payload) | payload
//	payload        core.Result minus Series |
//	               u64 len(series blob) | u32 crc32c(series blob)
//	series blob    "SMMS" | u32 version | fingerprint[32] | encoded series
//
// The embedded fingerprint guards against blobs filed under the wrong key;
// the version gates format evolution; the record's CRC guards its payload
// and the series reference inside it guards the whole series blob. A run
// with no series (no-tmem) has reference {0, 0} and no series blob.

// seriesRef is what a scalar record knows of its series blob.
type seriesRef struct {
	n   uint64
	crc uint32
}

func refOf(blob []byte) seriesRef {
	return seriesRef{n: uint64(len(blob)), crc: crc32.Checksum(blob, memoCRC)}
}

const blobHeadLen = len(memoMagic) + 4 + len(Fingerprint{})

func appendBlobHead(dst []byte, magic string, fp Fingerprint) []byte {
	dst = append(dst, magic...)
	dst = binary.LittleEndian.AppendUint32(dst, memoFormatVersion)
	return append(dst, fp[:]...)
}

// openBlob checks a blob's magic, version and fingerprint and returns what
// follows them.
func openBlob(blob []byte, magic string, fp Fingerprint) ([]byte, error) {
	if len(blob) < blobHeadLen {
		return nil, fmt.Errorf("experiments: memo %s blob truncated (%d bytes)", magic, len(blob))
	}
	if string(blob[:len(magic)]) != magic {
		return nil, fmt.Errorf("experiments: memo %s blob bad magic", magic)
	}
	if v := binary.LittleEndian.Uint32(blob[len(magic):]); v != memoFormatVersion {
		return nil, fmt.Errorf("experiments: memo %s blob format v%d, want v%d", magic, v, memoFormatVersion)
	}
	if string(blob[len(magic)+4:blobHeadLen]) != string(fp[:]) {
		return nil, fmt.Errorf("experiments: memo %s blob fingerprint mismatch", magic)
	}
	return blob[blobHeadLen:], nil
}

func encodeScalarRecord(dst []byte, fp Fingerprint, res *core.Result, ref seriesRef) []byte {
	dst = appendBlobHead(dst, memoMagic, fp)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // crc backfilled below
	dst = binary.LittleEndian.AppendUint64(dst, 0) // len backfilled below
	payloadAt := len(dst)
	dst = encodeScalars(dst, res)
	dst = encU64(dst, ref.n)
	dst = binary.LittleEndian.AppendUint32(dst, ref.crc)
	payload := dst[payloadAt:]
	binary.LittleEndian.PutUint32(dst[payloadAt-12:], crc32.Checksum(payload, memoCRC))
	binary.LittleEndian.PutUint64(dst[payloadAt-8:], uint64(len(payload)))
	return dst
}

func decodeScalarRecord(fp Fingerprint, blob []byte) (*core.Result, seriesRef, error) {
	rest, err := openBlob(blob, memoMagic, fp)
	if err != nil {
		return nil, seriesRef{}, err
	}
	if len(rest) < 12 {
		return nil, seriesRef{}, fmt.Errorf("experiments: memo record truncated (%d bytes)", len(blob))
	}
	crc := binary.LittleEndian.Uint32(rest)
	plen := binary.LittleEndian.Uint64(rest[4:])
	payload := rest[12:]
	if uint64(len(payload)) != plen {
		return nil, seriesRef{}, fmt.Errorf("experiments: memo record payload length %d, want %d", len(payload), plen)
	}
	if crc32.Checksum(payload, memoCRC) != crc {
		return nil, seriesRef{}, fmt.Errorf("experiments: memo record checksum mismatch")
	}
	d := &memoDec{b: payload}
	res := decodeScalars(d)
	ref := seriesRef{n: d.u64("series-len")}
	if d.err == nil && len(d.b) != 4 {
		d.err = fmt.Errorf("experiments: memo record has %d bytes for the series checksum", len(d.b))
	}
	if d.err != nil {
		return nil, seriesRef{}, d.err
	}
	ref.crc = binary.LittleEndian.Uint32(d.b)
	return res, ref, nil
}

func encodeSeriesBlob(dst []byte, fp Fingerprint, set *metrics.Set) []byte {
	dst = appendBlobHead(dst, seriesMagic, fp)
	names := set.Names()
	dst = encU64(dst, uint64(len(names)))
	for _, name := range names {
		dst = encStr(dst, name)
		pts := set.Get(name).Points()
		dst = encU64(dst, uint64(len(pts)))
		for _, p := range pts {
			dst = encF64(dst, p.T)
			dst = encF64(dst, p.V)
		}
	}
	return dst
}

// decodeSeriesBlob validates a series blob against its scalar record's
// reference and rebuilds the set, each series in one exact-size allocation.
func decodeSeriesBlob(fp Fingerprint, ref seriesRef, blob []byte) (*metrics.Set, error) {
	if got := refOf(blob); got != ref {
		return nil, fmt.Errorf("experiments: memo series blob is %d bytes crc %08x, record says %d bytes crc %08x",
			got.n, got.crc, ref.n, ref.crc)
	}
	body, err := openBlob(blob, seriesMagic, fp)
	if err != nil {
		return nil, err
	}
	d := &memoDec{b: body}
	set := metrics.NewSet()
	for n := d.count("series", 16); n > 0 && d.err == nil; n-- {
		name := d.str("series.name")
		np := d.count("series.points", 16)
		if d.err != nil {
			break
		}
		var pts []metrics.Point // nil when empty, as the live recorder leaves it
		if np > 0 {
			pts = make([]metrics.Point, np)
		}
		for i := range pts {
			pts[i].T = math.Float64frombits(binary.LittleEndian.Uint64(d.b[16*i:]))
			pts[i].V = math.Float64frombits(binary.LittleEndian.Uint64(d.b[16*i+8:]))
		}
		d.b = d.b[16*np:]
		// AddSeries rejects a regressing timestamp or a repeated name: the
		// bytes are untrusted even when the checksum holds.
		d.err = set.AddSeries(name, pts)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("experiments: memo series blob has %d trailing bytes", len(d.b))
	}
	return set, nil
}

// --- core.Result codec ---
//
// Hand-rolled little-endian encoding: encoding/gob cannot see the
// unexported fields of metrics.Set/Series, and a hand encoding is both
// deterministic (stable byte output for identical results) and allocation-
// friendly on the hot sweep path. The walks below, with the series blob
// above, must cover every field of core.Result and its component structs.
// The stats blocks (guest.Stats, tmem.OpCounts, the tier and journal
// stats) travel in their Fields order, so a field reaches the record
// exactly when it reaches Fields; TestMemoCodecCoversResult pins the
// struct shapes with reflection and round-trips a Result with every field
// set, so adding a field to core.Result fails tests until the codec and
// memoFormatVersion are updated together. The encoding is
// canonical — a record the decoder accepts re-encodes to the same bytes
// (FuzzMemoDecode) — so a bool is exactly 0 or 1.

func encU64(b []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(b, v) }
func encI64(b []byte, v int64) []byte   { return encU64(b, uint64(v)) }
func encF64(b []byte, v float64) []byte { return encU64(b, math.Float64bits(v)) }
func encBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
func encStr(b []byte, s string) []byte {
	b = encU64(b, uint64(len(s)))
	return append(b, s...)
}

// memoEnc appends a stats block to a record, field by field in the
// block's Fields order (metrics.Visitor).
type memoEnc []byte

func (e *memoEnc) Uint64(_, _ string, _ metrics.Kind, v *uint64) { *e = encU64(*e, *v) }
func (e *memoEnc) Int64(_, _ string, _ metrics.Kind, v *int64)   { *e = encI64(*e, *v) }
func (e *memoEnc) Bool(_, _ string, _ metrics.Kind, v *bool)     { *e = encBool(*e, *v) }

func encBlock(b []byte, blk metrics.Block) []byte {
	e := memoEnc(b)
	blk.Fields(&e)
	return e
}

func encodeScalars(b []byte, r *core.Result) []byte {
	b = encStr(b, r.PolicyName)
	b = encU64(b, r.Seed)
	b = encI64(b, int64(r.EndTime))
	b = encBool(b, r.HitLimit)
	b = encBool(b, r.Cancelled)

	b = encU64(b, uint64(len(r.Runs)))
	for _, run := range r.Runs {
		b = encStr(b, run.VM)
		b = encStr(b, run.Label)
		b = encI64(b, int64(run.Start))
		b = encI64(b, int64(run.End))
	}

	b = encU64(b, uint64(len(r.VMs)))
	for i := range r.VMs {
		vm := &r.VMs[i]
		b = encStr(b, vm.Name)
		b = encI64(b, int64(vm.ID))
		b = encBlock(b, &vm.Kernel)
		b = encI64(b, int64(vm.Tmem.ID))
		b = encBlock(b, &vm.Tmem)
	}

	b = encU64(b, uint64(len(r.Nodes)))
	for _, n := range r.Nodes {
		b = encStr(b, n.Name)
		b = encStr(b, n.PolicyName)
		b = encU64(b, n.SampleTicks)
		b = encU64(b, n.MMBatchesSent)
		b = encU64(b, n.DiskOps)
		b = encI64(b, int64(n.DiskBusy))
		b = encOptBlock(b, n.Remote)
		b = encOptBlock(b, n.Compressed)
		b = encOptBlock(b, n.Durable)
	}

	b = encU64(b, r.MMBatchesSent)
	b = encU64(b, r.SampleTicks)
	b = encU64(b, r.DiskOps)
	b = encI64(b, int64(r.DiskBusy))
	b = encOptBlock(b, r.Compressed)
	return encOptBlock(b, r.Durable)
}

// encOptBlock appends a presence flag, then the block when there is one.
func encOptBlock[P interface {
	comparable
	metrics.Block
}](b []byte, blk P) []byte {
	var none P
	b = encBool(b, blk != none)
	if blk != none {
		b = encBlock(b, blk)
	}
	return b
}

// memoDec is a sticky-error little-endian reader over a payload slice.
type memoDec struct {
	b   []byte
	err error
}

func (d *memoDec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("experiments: memo entry truncated in %s", what)
	}
}

func (d *memoDec) u64(what string) uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *memoDec) i64(what string) int64 { return int64(d.u64(what)) }

func (d *memoDec) bool(what string) bool {
	if d.err != nil {
		return false
	}
	if len(d.b) < 1 {
		d.fail(what)
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	if v > 1 {
		d.err = fmt.Errorf("experiments: memo entry bad bool %d in %s", v, what)
	}
	return v == 1
}

func (d *memoDec) str(what string) string {
	n := d.u64(what)
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail(what)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count reads a length prefix and sanity-bounds it against the remaining
// payload (each element costs at least min bytes), so corrupt lengths fail
// cleanly instead of attempting huge allocations.
func (d *memoDec) count(what string, min int) int {
	n := d.u64(what)
	if d.err != nil {
		return 0
	}
	if min > 0 && n > uint64(len(d.b)/min) {
		if d.err == nil {
			d.err = fmt.Errorf("experiments: memo entry implausible %s count %d", what, n)
		}
		return 0
	}
	return int(n)
}

// The decoder is the Visitor that fills a stats block from the record.
func (d *memoDec) Uint64(name, _ string, _ metrics.Kind, v *uint64) { *v = d.u64(name) }
func (d *memoDec) Int64(name, _ string, _ metrics.Kind, v *int64)   { *v = d.i64(name) }
func (d *memoDec) Bool(name, _ string, _ metrics.Kind, v *bool)     { *v = d.bool(name) }

// optBlock reads a presence flag, then the block into a fresh T when the
// flag is set.
func optBlock[T any, P interface {
	*T
	metrics.Block
}](d *memoDec, what string) P {
	if !d.bool(what) {
		return nil
	}
	blk := P(new(T))
	blk.Fields(d)
	return blk
}

func decodeScalars(d *memoDec) *core.Result {
	r := &core.Result{}
	r.PolicyName = d.str("policy")
	r.Seed = d.u64("seed")
	r.EndTime = sim.Time(d.i64("end-time"))
	r.HitLimit = d.bool("hit-limit")
	r.Cancelled = d.bool("cancelled")

	if n := d.count("runs", 4*8); n > 0 {
		r.Runs = make([]core.RunRecord, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			r.Runs = append(r.Runs, core.RunRecord{
				VM:    d.str("run.vm"),
				Label: d.str("run.label"),
				Start: sim.Time(d.i64("run.start")),
				End:   sim.Time(d.i64("run.end")),
			})
		}
	}

	if n := d.count("vms", 8); n > 0 {
		r.VMs = make([]core.VMResult, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			r.VMs = append(r.VMs, core.VMResult{Name: d.str("vm.name"), ID: tmem.VMID(d.i64("vm.id"))})
			vm := &r.VMs[i]
			vm.Kernel.Fields(d)
			vm.Tmem.ID = tmem.VMID(d.i64("vm.tmem-id"))
			vm.Tmem.Fields(d)
		}
	}

	if n := d.count("nodes", 8); n > 0 {
		r.Nodes = make([]core.NodeResult, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			r.Nodes = append(r.Nodes, core.NodeResult{
				Name:          d.str("node.name"),
				PolicyName:    d.str("node.policy"),
				SampleTicks:   d.u64("node.ticks"),
				MMBatchesSent: d.u64("node.batches"),
				DiskOps:       d.u64("node.disk-ops"),
				DiskBusy:      sim.Duration(d.i64("node.disk-busy")),
				Remote:        optBlock[tmem.TierStats](d, "node.remote?"),
				Compressed:    optBlock[tmem.CompressedTierStats](d, "node.compressed?"),
				Durable:       optBlock[durable.Summary](d, "node.durable?"),
			})
		}
	}

	r.MMBatchesSent = d.u64("batches")
	r.SampleTicks = d.u64("ticks")
	r.DiskOps = d.u64("disk-ops")
	r.DiskBusy = sim.Duration(d.i64("disk-busy"))
	r.Compressed = optBlock[tmem.CompressedTierStats](d, "compressed?")
	r.Durable = optBlock[durable.Summary](d, "durable?")
	return r
}
