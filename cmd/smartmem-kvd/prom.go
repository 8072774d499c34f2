package main

import (
	"fmt"
	"net/http"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"time"

	"smartmem/internal/hdr"
	"smartmem/internal/kvstore"
	"smartmem/internal/metrics"
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
		var fams promFamilies
		writeWireMetrics(&fams, m)
		writeIntervalMetrics(&fams, m, st)
		writeStoreMetrics(&fams, node)
		var b strings.Builder
		fams.write(&b)
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
func writeIntervalMetrics(p *promFamilies, m *kvstore.Metrics, st *intervalState) {
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

	const latency, latencyHelp = "smartmem_op_interval_latency_seconds", "Wire request latency over the last scrape interval, by op."
	for _, od := range deltas {
		p.add("smartmem_op_interval_rate", "gauge", "Requests per second over the last scrape interval, by op.",
			fmt.Sprintf("{op=%q}", od.name), float64(od.d.Count)/elapsed)
	}
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
			p.add(latency, "summary", latencyHelp, fmt.Sprintf("{op=%q,quantile=%q}", od.name, pq.label), float64(v)/1e9)
		}
		p.add(latency, "summary", latencyHelp, fmt.Sprintf("_sum{op=%q}", od.name), od.d.Mean*float64(od.d.Count)/1e9)
		p.add(latency, "summary", latencyHelp, fmt.Sprintf("_count{op=%q}", od.name), float64(od.d.Count))
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

func writeWireMetrics(p *promFamilies, m *kvstore.Metrics) {
	if m == nil {
		return
	}
	const latency, latencyHelp = "smartmem_op_latency_seconds", "Wire request latency per op, frame decode to response enqueue."
	for _, op := range kvstore.Ops() {
		h := m.OpHistogram(op)
		if h == nil || h.Count() == 0 {
			continue
		}
		name := kvstore.OpName(op)
		for _, pq := range promQuantiles {
			p.add(latency, "summary", latencyHelp, fmt.Sprintf("{op=%q,quantile=%q}", name, pq.label), float64(h.Quantile(pq.q))/1e9)
		}
		p.add(latency, "summary", latencyHelp, fmt.Sprintf("_sum{op=%q}", name), float64(h.Sum())/1e9)
		p.add(latency, "summary", latencyHelp, fmt.Sprintf("_count{op=%q}", name), float64(h.Count()))
	}
	for _, op := range kvstore.Ops() {
		if h := m.OpHistogram(op); h != nil && h.Count() > 0 {
			p.add("smartmem_ops_total", "counter", "Wire requests served, by op.", fmt.Sprintf("{op=%q}", kvstore.OpName(op)), float64(h.Count()))
		}
	}
	p.add("smartmem_wire_bytes_in_total", "counter", "Bytes read off client connections.", "", float64(m.BytesIn()))
	p.add("smartmem_wire_bytes_out_total", "counter", "Bytes written to client connections.", "", float64(m.BytesOut()))
	p.add("smartmem_wire_conns_total", "counter", "Client connections accepted.", "", float64(m.ConnsTotal()))
	p.add("smartmem_wire_conns_active", "gauge", "Client connections currently open.", "", float64(m.ConnsActive()))
	p.add("smartmem_wire_proto_errors_total", "counter", "Malformed or truncated request frames.", "", float64(m.ProtoErrors()))
}

func writeStoreMetrics(p *promFamilies, node kvNode) {
	bk := node.backend
	p.add("smartmem_store_pages_total", "gauge", "Store capacity in pages.", "", float64(bk.TotalPages()))
	p.add("smartmem_store_pages_used", "gauge", "Pages currently holding data.", "", float64(bk.TotalPages()-bk.FreePages()))
	p.add("smartmem_store_footprint_bytes", "gauge", "Live page bytes.", "", float64(bk.Footprint()))
	// Stored pages live outside the Go heap: this gauge does not count them.
	p.add("smartmem_go_heap_bytes", "gauge", "Bytes in live and unswept Go heap objects.", "", goHeapBytes())

	for _, t := range bk.Tiers() {
		tl := fmt.Sprintf("{tier=%q}", t.Name())
		ct, ok := t.(*tmem.CompressedTier)
		if !ok {
			s := t.Stats()
			p.block("smartmem_tier_", tl, &s)
			continue
		}
		cs := ct.CompressedStats()
		p.block("smartmem_tier_", tl, &cs)
		p.add("smartmem_tier_effective_extra_pages", "gauge", "Pages the tier can absorb beyond the raw frames at its observed ratio.", tl, float64(ct.EffectiveExtraPages()))
	}

	if node.dlog != nil {
		ls := node.dlog.Stats()
		p.block("smartmem_durable_", "", &ls)
		p.add("smartmem_durable_degraded", "gauge", "1 when the journal has failed: persistent puts and new persistent pools are refused until restart.", "", gauge01(node.dstore.Degraded()))
		p.add("smartmem_durable_recovery_served_total", "counter", "Gets answered from the journal because the backend missed the page.", "", float64(node.dstore.RecoveryServed()))
		ri := node.dlog.Recovery()
		p.add("smartmem_durable_recovery_clean", "gauge", "1 when the last start found a clean-shutdown marker and skipped the WAL replay.", "", gauge01(ri.CleanShutdown))
		p.add("smartmem_durable_recovery_snapshot", "gauge", "1 when the last start seeded its state from a snapshot.", "", gauge01(ri.SnapshotLoaded))
		p.add("smartmem_durable_recovery_records", "gauge", "WAL records the last start replayed.", "", float64(ri.WALRecords))
		p.add("smartmem_durable_recovery_torn", "gauge", "1 when the last start discarded a torn final record.", "", gauge01(ri.TornTail))
		p.add("smartmem_durable_recovery_corrupt", "gauge", "Corrupt WAL records the last start skipped.", "", float64(ri.CorruptRecords))
	}
}

// promFamilies gathers a scrape's samples by family, so each family's HELP
// and TYPE are written once, ahead of all its samples, whichever op, tier
// or block reported them. Walking a stats block with it (metrics.Visitor)
// applies the one naming rule: field f of a block walked under prefix p is
// the family p+f, with _total on counters, and time fields are counters in
// seconds, p+f+"_seconds_total".
type promFamilies struct {
	fams   []*promFamily
	byName map[string]*promFamily
	prefix string // of the block being walked
	labels string // of the block being walked
}

type promFamily struct {
	name, typ, help string
	samples         []string // what follows name on each sample line
}

// add appends a sample to the family name, opening the family on its first
// sample. series is what follows the name on the sample line: a summary's
// _sum or _count suffix, if any, and the label set.
func (p *promFamilies) add(name, typ, help, series string, v float64) {
	f := p.byName[name]
	if f == nil {
		if p.byName == nil {
			p.byName = make(map[string]*promFamily)
		}
		f = &promFamily{name: name, typ: typ, help: help}
		p.byName[name] = f
		p.fams = append(p.fams, f)
	}
	f.samples = append(f.samples, fmt.Sprintf("%s %g", series, v))
}

func (p *promFamilies) block(prefix, labels string, blk metrics.Block) {
	p.prefix, p.labels = prefix, labels
	blk.Fields(p)
}

func (p *promFamilies) Uint64(name, help string, k metrics.Kind, v *uint64) {
	p.field(name, help, k, float64(*v))
}
func (p *promFamilies) Int64(name, help string, k metrics.Kind, v *int64) {
	p.field(name, help, k, float64(*v))
}
func (p *promFamilies) Bool(name, help string, k metrics.Kind, v *bool) {
	p.field(name, help, k, gauge01(*v))
}

func (p *promFamilies) field(name, help string, k metrics.Kind, v float64) {
	switch k {
	case metrics.Gauge:
		p.add(p.prefix+name, "gauge", help, p.labels, v)
	case metrics.Counter:
		p.add(p.prefix+name+"_total", "counter", help, p.labels, v)
	default:
		p.add(p.prefix+name+"_seconds_total", "counter", help, p.labels, v/1e9)
	}
}

func (p *promFamilies) write(b *strings.Builder) {
	for _, f := range p.fams {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.samples {
			fmt.Fprintf(b, "%s%s\n", f.name, s)
		}
	}
}

// goHeapBytes reads the Go heap's object bytes from runtime/metrics.
func goHeapBytes() float64 {
	s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// gauge01 is a boolean gauge's sample value.
func gauge01(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
