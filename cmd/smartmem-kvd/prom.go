package main

import (
	"fmt"
	"net/http"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"smartmem/internal/hdr"
	"smartmem/internal/kvstore"
	"smartmem/internal/tmem"
)

// promHandler renders the daemon's live counters in the Prometheus text
// exposition format on /metrics, the one document the -debug server
// serves. Everything is read with atomic loads at scrape time —
// the wire latency summaries come straight out of the kvstore.Metrics hdr
// histograms, so a scrape never touches a lock the serving path holds.
//
// Besides the cumulative summaries, the handler remembers each op
// histogram's State from the previous scrape and diffs it against the
// current one, exposing interval families (request rate and latency
// quantiles over just the scrape-to-scrape window). Cumulative quantiles
// flatten toward the long-run mix within minutes of uptime; the interval
// view is what a dashboard actually wants to alert on.
func promHandler(node kvNode, m *kvstore.Metrics) http.Handler {
	return promHandlerClock(node, m, time.Now)
}

// promHandlerClock is promHandler with an injectable wall clock (tests pin
// the scrape interval with it).
func promHandlerClock(node kvNode, m *kvstore.Metrics, now func() time.Time) http.Handler {
	st := &intervalState{now: now}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		writeWireMetrics(&b, m)
		writeIntervalMetrics(&b, m, st)
		writeStoreMetrics(&b, node)
		_, _ = w.Write([]byte(b.String()))
	})
}

// intervalState carries one scrape's histogram States to the next. The
// mutex only serializes concurrent scrapers against each other — the
// serving path never touches it.
type intervalState struct {
	mu   sync.Mutex
	now  func() time.Time
	last time.Time
	prev map[byte]hdr.State // op → State; nil until the first scrape completes
}

// writeIntervalMetrics emits the scrape-to-scrape families: per-op request
// rate and interval latency quantiles, derived by diffing the op
// histograms' States against the previous scrape. The first scrape has no
// baseline and emits nothing (it only seeds the States); ops quiet over
// the whole interval are omitted.
func writeIntervalMetrics(b *strings.Builder, m *kvstore.Metrics, st *intervalState) {
	if m == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()

	now := st.now()
	cur := make(map[byte]hdr.State)
	for _, op := range kvstore.Ops() {
		if h := m.OpHistogram(op); h != nil {
			cur[op] = h.State()
		}
	}
	prev, last := st.prev, st.last
	st.prev, st.last = cur, now
	if prev == nil {
		return
	}
	elapsed := now.Sub(last).Seconds()
	if elapsed <= 0 {
		return
	}

	type opDelta struct {
		name string
		d    hdr.Snapshot
	}
	var deltas []opDelta
	for _, op := range kvstore.Ops() {
		c, ok := cur[op]
		if !ok {
			continue
		}
		// An op first seen this interval diffs against the zero State,
		// which correctly attributes all of its activity to the interval.
		if d := hdr.DeltaSnapshot(c, prev[op]); d.Count > 0 {
			deltas = append(deltas, opDelta{kvstore.OpName(op), d})
		}
	}
	if len(deltas) == 0 {
		return
	}

	fmt.Fprintf(b, "# HELP smartmem_op_interval_rate Requests per second over the last scrape interval, by op.\n")
	fmt.Fprintf(b, "# TYPE smartmem_op_interval_rate gauge\n")
	for _, od := range deltas {
		fmt.Fprintf(b, "smartmem_op_interval_rate{op=%q} %g\n", od.name, float64(od.d.Count)/elapsed)
	}
	fmt.Fprintf(b, "# HELP smartmem_op_interval_latency_seconds Wire request latency over the last scrape interval, by op.\n")
	fmt.Fprintf(b, "# TYPE smartmem_op_interval_latency_seconds summary\n")
	for _, od := range deltas {
		for _, pq := range promQuantiles {
			var v int64
			switch pq.q {
			case 0.50:
				v = od.d.P50
			case 0.90:
				v = od.d.P90
			case 0.99:
				v = od.d.P99
			default:
				v = od.d.P999
			}
			fmt.Fprintf(b, "smartmem_op_interval_latency_seconds{op=%q,quantile=%q} %g\n",
				od.name, pq.label, float64(v)/1e9)
		}
		fmt.Fprintf(b, "smartmem_op_interval_latency_seconds_sum{op=%q} %g\n",
			od.name, od.d.Mean*float64(od.d.Count)/1e9)
		fmt.Fprintf(b, "smartmem_op_interval_latency_seconds_count{op=%q} %d\n", od.name, od.d.Count)
	}
}

// quantiles published per op. Prometheus summary convention: the op's
// latency series carries {quantile="..."} labels plus _count and _sum.
var promQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.50},
	{"0.9", 0.90},
	{"0.99", 0.99},
	{"0.999", 0.999},
}

func writeWireMetrics(b *strings.Builder, m *kvstore.Metrics) {
	if m == nil {
		return
	}
	fmt.Fprintf(b, "# HELP smartmem_op_latency_seconds Wire request latency per op, frame decode to response enqueue.\n")
	fmt.Fprintf(b, "# TYPE smartmem_op_latency_seconds summary\n")
	for _, op := range kvstore.Ops() {
		h := m.OpHistogram(op)
		if h == nil || h.Count() == 0 {
			continue
		}
		name := kvstore.OpName(op)
		for _, pq := range promQuantiles {
			fmt.Fprintf(b, "smartmem_op_latency_seconds{op=%q,quantile=%q} %g\n",
				name, pq.label, float64(h.Quantile(pq.q))/1e9)
		}
		fmt.Fprintf(b, "smartmem_op_latency_seconds_sum{op=%q} %g\n", name, float64(h.Sum())/1e9)
		fmt.Fprintf(b, "smartmem_op_latency_seconds_count{op=%q} %d\n", name, h.Count())
	}
	counter(b, "smartmem_ops_total", "Wire requests served, by op.", func(emit func(labels string, v float64)) {
		for _, op := range kvstore.Ops() {
			if h := m.OpHistogram(op); h != nil && h.Count() > 0 {
				emit(fmt.Sprintf("{op=%q}", kvstore.OpName(op)), float64(h.Count()))
			}
		}
	})
	scalar(b, "smartmem_wire_bytes_in_total", "counter", "Bytes read off client connections.", float64(m.BytesIn()))
	scalar(b, "smartmem_wire_bytes_out_total", "counter", "Bytes written to client connections.", float64(m.BytesOut()))
	scalar(b, "smartmem_wire_conns_total", "counter", "Client connections accepted.", float64(m.ConnsTotal()))
	scalar(b, "smartmem_wire_conns_active", "gauge", "Client connections currently open.", float64(m.ConnsActive()))
	scalar(b, "smartmem_wire_proto_errors_total", "counter", "Malformed or truncated request frames.", float64(m.ProtoErrors()))
}

func writeStoreMetrics(b *strings.Builder, node kvNode) {
	bk := node.backend
	scalar(b, "smartmem_store_pages_total", "gauge", "Store capacity in pages.", float64(bk.TotalPages()))
	scalar(b, "smartmem_store_pages_used", "gauge", "Pages currently holding data.", float64(bk.TotalPages()-bk.FreePages()))
	scalar(b, "smartmem_store_footprint_bytes", "gauge", "Live page bytes.", float64(bk.Footprint()))
	// Stored pages live outside the Go heap: this gauge does not count them.
	scalar(b, "smartmem_go_heap_bytes", "gauge", "Bytes in live and unswept Go heap objects.", goHeapBytes())

	tiers := bk.Tiers()
	if len(tiers) > 0 {
		fmt.Fprintf(b, "# HELP smartmem_tier_ops_total Overflow-tier operations, by tier and op.\n")
		fmt.Fprintf(b, "# TYPE smartmem_tier_ops_total counter\n")
		for _, t := range tiers {
			s := t.Stats()
			for _, c := range []struct {
				op string
				v  uint64
			}{
				{"put", s.Puts}, {"put_ok", s.PutsOK},
				{"get", s.Gets}, {"get_hit", s.GetsHit},
				{"flush", s.PageFlushes + s.ObjectFlushes},
				{"error", s.Errors},
			} {
				fmt.Fprintf(b, "smartmem_tier_ops_total{tier=%q,op=%q} %d\n", t.Name(), c.op, c.v)
			}
		}
	}
	for _, t := range tiers {
		ct, ok := t.(*tmem.CompressedTier)
		if !ok {
			continue
		}
		cs := ct.CompressedStats()
		tl := fmt.Sprintf("{tier=%q}", t.Name())
		labeled(b, "smartmem_compressed_pages_stored", "gauge", "Pages resident in the compressed tier.", tl, float64(cs.PagesStored))
		labeled(b, "smartmem_compressed_unique_blobs", "gauge", "Unique compressed blobs after dedup.", tl, float64(cs.UniqueBlobs))
		labeled(b, "smartmem_compressed_raw_bytes", "gauge", "Uncompressed bytes represented.", tl, float64(cs.RawBytes))
		labeled(b, "smartmem_compressed_stored_bytes", "gauge", "Arena bytes actually used.", tl, float64(cs.StoredBytes))
		labeled(b, "smartmem_compressed_dedup_hits_total", "counter", "Puts satisfied by an existing blob.", tl, float64(cs.DedupHits))
		labeled(b, "smartmem_compressed_rejected_full_total", "counter", "Puts rejected by the arena budget.", tl, float64(cs.RejectedFull))
		labeled(b, "smartmem_compressed_decode_errors_total", "counter", "Stored blobs that failed to decode on a get.", tl, float64(cs.DecodeErrors))
		labeled(b, "smartmem_compressed_effective_extra_pages", "gauge", "Pages the tier can absorb beyond the raw frames at its observed ratio.", tl, float64(ct.EffectiveExtraPages()))
		labeled(b, "smartmem_compressed_codec_seconds_total", "counter", "Cumulative codec time.",
			fmt.Sprintf("{tier=%q,dir=\"compress\"}", t.Name()), float64(cs.CompressNs)/1e9)
		fmt.Fprintf(b, "smartmem_compressed_codec_seconds_total{tier=%q,dir=\"decompress\"} %g\n",
			t.Name(), float64(cs.DecompressNs)/1e9)
	}

	if node.dlog != nil {
		ls := node.dlog.Stats()
		scalar(b, "smartmem_wal_appends_total", "counter", "Records appended to the write-ahead log.", float64(ls.Appends))
		scalar(b, "smartmem_wal_bytes_total", "counter", "Bytes appended to the write-ahead log.", float64(ls.AppendedBytes))
		scalar(b, "smartmem_wal_fsyncs_total", "counter", "fsync calls issued by the journal.", float64(ls.Fsyncs))
		scalar(b, "smartmem_wal_segments", "gauge", "Live WAL segment files.", float64(ls.Segments))
		scalar(b, "smartmem_wal_compactions_total", "counter", "Snapshot compactions completed.", float64(ls.Compactions))
		scalar(b, "smartmem_wal_compaction_seconds_total", "counter", "Wall time spent inside compactions.", float64(ls.CompactNanos)/1e9)
		scalar(b, "smartmem_wal_compacting", "gauge", "1 while a compaction is writing a snapshot.", gauge01(ls.Compacting))
		scalar(b, "smartmem_durable_pages_live", "gauge", "Pages the journal holds live.", float64(ls.PagesLive))
		scalar(b, "smartmem_durable_bytes_live", "gauge", "Page bytes the live index entries locate on the blob store.", float64(ls.BytesLive))
		scalar(b, "smartmem_durable_pools", "gauge", "Live persistent pools in the journal.", float64(ls.Pools))
		scalar(b, "smartmem_durable_snapshot_pages", "gauge", "Pages in the latest snapshot.", float64(ls.SnapshotPages))
		scalar(b, "smartmem_durable_errors_total", "counter", "Journal I/O errors.", float64(ls.Errors))
		scalar(b, "smartmem_durable_degraded", "gauge", "1 when the journal has failed: persistent puts and new persistent pools are refused until restart.", gauge01(node.dstore.Degraded()))
		scalar(b, "smartmem_durable_recovery_served_total", "counter", "Gets answered from the journal because the backend missed the page.", float64(node.dstore.RecoveryServed()))
		ri := node.dlog.Recovery()
		scalar(b, "smartmem_durable_recovery_clean", "gauge", "1 when the last start found a clean-shutdown marker and skipped the WAL replay.", gauge01(ri.CleanShutdown))
		scalar(b, "smartmem_durable_recovery_snapshot", "gauge", "1 when the last start seeded its state from a snapshot.", gauge01(ri.SnapshotLoaded))
		scalar(b, "smartmem_durable_recovery_records", "gauge", "WAL records the last start replayed.", float64(ri.WALRecords))
		scalar(b, "smartmem_durable_recovery_torn", "gauge", "1 when the last start discarded a torn final record.", gauge01(ri.TornTail))
		scalar(b, "smartmem_durable_recovery_corrupt", "gauge", "Corrupt WAL records the last start skipped.", float64(ri.CorruptRecords))
	}
}

// goHeapBytes reads the Go heap's object bytes from runtime/metrics.
func goHeapBytes() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// gauge01 is a boolean gauge's sample value.
func gauge01(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// scalar emits one unlabeled sample with HELP/TYPE headers.
func scalar(b *strings.Builder, name, typ, help string, v float64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
}

// labeled emits one labeled sample with HELP/TYPE headers.
func labeled(b *strings.Builder, name, typ, help, labels string, v float64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n%s%s %g\n", name, help, name, typ, name, labels, v)
}

// counter emits a labeled counter family: HELP/TYPE once, then every
// sample the fill callback produces, in deterministic label order.
func counter(b *strings.Builder, name, help string, fill func(emit func(labels string, v float64))) {
	type sample struct {
		labels string
		v      float64
	}
	var samples []sample
	fill(func(labels string, v float64) { samples = append(samples, sample{labels, v}) })
	if len(samples) == 0 {
		return
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].labels < samples[j].labels })
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	for _, s := range samples {
		fmt.Fprintf(b, "%s%s %g\n", name, s.labels, s.v)
	}
}
