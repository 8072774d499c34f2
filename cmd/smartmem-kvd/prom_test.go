package main

import (
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"smartmem/internal/durable"
	"smartmem/internal/kvstore"
	"smartmem/internal/mem"
	"smartmem/internal/tmem"
)

// TestPromHandler scrapes the /metrics handler over a store with a
// compressed tier attached and recorded wire activity, and checks the
// families, label sets and a few exact values of the exposition.
func TestPromHandler(t *testing.T) {
	backend := newBackend(mem.Pages(256), 1)
	backend.AttachTier(tmem.NewCompressedTier(tmem.CompressedTierConfig{
		PageSize:      pageSize,
		CapacityBytes: 1 * mem.MiB,
		Codec:         tmem.NewLZCodec(),
	}))
	m := kvstore.NewMetrics()
	for i := 0; i < 10; i++ {
		m.OpHistogram(kvstore.OpPut).Record(int64(time.Millisecond))
	}
	m.OpHistogram(kvstore.OpGet).Record(int64(2 * time.Millisecond))

	node := kvNode{store: backend, backend: backend, metrics: m}
	srv := httptest.NewServer(promHandler(node, m))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	body := string(raw)

	for _, want := range []string{
		`smartmem_op_latency_seconds{op="put",quantile="0.99"} `,
		`smartmem_op_latency_seconds_count{op="put"} 10`,
		`smartmem_op_latency_seconds_count{op="get"} 1`,
		`smartmem_ops_total{op="put"} 10`,
		"# TYPE smartmem_op_latency_seconds summary",
		"# TYPE smartmem_ops_total counter",
		"smartmem_store_pages_total 256",
		"smartmem_store_pages_used 0",
		"# HELP smartmem_store_footprint_bytes Live page bytes.",
		"smartmem_store_footprint_bytes 0",
		"# TYPE smartmem_go_heap_bytes gauge",
		"# TYPE smartmem_wire_conns_active gauge",
		"smartmem_wire_proto_errors_total 0",
		`smartmem_tier_ops_total{tier="compressed",op="put"} 0`,
		`smartmem_compressed_stored_bytes{tier="compressed"} 0`,
		`smartmem_compressed_decode_errors_total{tier="compressed"} 0`,
		"# TYPE smartmem_compressed_decode_errors_total counter",
		"# TYPE smartmem_compressed_effective_extra_pages gauge",
		`smartmem_compressed_effective_extra_pages{tier="compressed"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// No durable log attached: the WAL families must be absent.
	if strings.Contains(body, "smartmem_wal_") {
		t.Error("exposition has WAL families without -durable")
	}

	// The put p50 must round-trip through the histogram to ~1ms in
	// seconds (hdr upper-bound error is <= 1/64).
	found := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `smartmem_op_latency_seconds{op="put",quantile="0.5"} `) {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if v < 0.001 || v > 0.00102 {
				t.Errorf("put p50 = %gs, want ~1ms", v)
			}
			found = true
			break
		}
	}
	if !found {
		t.Error("no put p50 sample found")
	}
	// The Go heap gauge reads the runtime, which holds at least the
	// exposition just built.
	if v := promSample(t, body, "smartmem_go_heap_bytes "); v < float64(len(body)) {
		t.Errorf("smartmem_go_heap_bytes = %g, want at least the %d-byte exposition", v, len(body))
	}
	// First scrape has no baseline: interval families must be absent.
	if strings.Contains(body, "smartmem_op_interval_") {
		t.Error("first scrape exposes interval families without a baseline")
	}
}

// TestPromHandlerDurable scrapes a journaled node after one compaction:
// the WAL families are present and the compaction shows up as a count, as
// time spent and as a gauge that is back to zero.
func TestPromHandlerDurable(t *testing.T) {
	backend := newBackend(mem.Pages(64), 1)
	node, err := openDurable(backend, t.TempDir(), durable.FsyncOff, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer node.dlog.Close()
	pool := node.store.NewPool(1, tmem.Persistent)
	if st := node.store.Put(tmem.Key{Pool: pool}, make([]byte, pageSize)); st != tmem.STmem {
		t.Fatalf("put: %v", st)
	}
	if err := node.dlog.Compact(); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	promHandler(node, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"smartmem_wal_compactions_total 1\n",
		"# TYPE smartmem_wal_compaction_seconds_total counter",
		"# TYPE smartmem_wal_compacting gauge",
		"smartmem_wal_compacting 0\n",
		"smartmem_durable_pages_live 1\n",
		"smartmem_durable_bytes_live 4096\n",
		"smartmem_durable_pools 1\n",
		"smartmem_durable_snapshot_pages 1\n",
		"# TYPE smartmem_durable_recovery_served_total counter",
		"smartmem_durable_recovery_served_total 0\n",
		// A fresh directory: nothing was recovered.
		"smartmem_durable_recovery_clean 0\n",
		"smartmem_durable_recovery_snapshot 0\n",
		"smartmem_durable_recovery_records 0\n",
		"smartmem_durable_recovery_torn 0\n",
		"smartmem_durable_recovery_corrupt 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if v := promSample(t, body, "smartmem_wal_compaction_seconds_total "); v <= 0 {
		t.Errorf("compaction seconds = %g after a compaction, want > 0", v)
	}
}

// TestPromHandlerRecovery restarts a journaled node, crash-style, onto a
// one-page backend: the recovery gauges describe the snapshot + WAL-tail
// start, and the get of the page that no longer fits is served from the
// journal and counted.
func TestPromHandlerRecovery(t *testing.T) {
	dir := t.TempDir()
	node, err := openDurable(newBackend(mem.Pages(64), 1), dir, durable.FsyncOff, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	pool := node.store.NewPool(1, tmem.Persistent)
	put := func(i tmem.PageIndex) {
		if st := node.store.Put(tmem.Key{Pool: pool, Index: i}, make([]byte, pageSize)); st != tmem.STmem {
			t.Fatalf("put %d: %v", i, st)
		}
	}
	put(0)
	if err := node.dlog.Compact(); err != nil {
		t.Fatal(err)
	}
	put(1)
	node.dlog.Close() // no clean-shutdown marker

	node, err = openDurable(newBackend(mem.Pages(1), 1), dir, durable.FsyncOff, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer node.dlog.Close()
	buf := make([]byte, pageSize)
	for i := tmem.PageIndex(0); i < 2; i++ {
		if st := node.store.Get(tmem.Key{Pool: pool, Index: i}, buf); st != tmem.STmem {
			t.Fatalf("get %d after restart: %v", i, st)
		}
	}

	rec := httptest.NewRecorder()
	promHandler(node, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"smartmem_durable_recovery_served_total 1\n",
		"smartmem_durable_recovery_clean 0\n",
		"smartmem_durable_recovery_snapshot 1\n",
		"smartmem_durable_recovery_torn 0\n",
		"smartmem_durable_recovery_corrupt 0\n",
		"smartmem_durable_pages_live 2\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if v := promSample(t, body, "smartmem_durable_recovery_records "); v < 1 {
		t.Errorf("recovery records = %g, want the WAL tail's put (>= 1)", v)
	}
}

// promSample extracts the value of the first sample line with the given
// prefix, or fails the test.
func promSample(t *testing.T, body, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no sample with prefix %q", prefix)
	return 0
}

// TestPromHandlerIntervalFamilies drives two scrapes with recording in
// between and a pinned 10s wall-clock gap: the second scrape must expose
// per-op interval rate and latency quantiles computed over just that
// window, while the cumulative summary keeps counting from process start.
func TestPromHandlerIntervalFamilies(t *testing.T) {
	backend := newBackend(mem.Pages(64), 1)
	m := kvstore.NewMetrics()
	node := kvNode{store: backend, backend: backend, metrics: m}

	// Injectable clock: each scrape advances wall time by 10s.
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	srv := httptest.NewServer(promHandlerClock(node, m, now))
	defer srv.Close()

	scrape := func() string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read body: %v", err)
		}
		return string(raw)
	}

	// Pre-baseline activity: 1000 slow puts that must NOT leak into the
	// interval view.
	for i := 0; i < 1000; i++ {
		m.OpHistogram(kvstore.OpPut).Record(int64(100 * time.Millisecond))
	}
	first := scrape()
	if strings.Contains(first, "smartmem_op_interval_") {
		t.Fatal("baseline scrape exposes interval families")
	}

	// Interval activity: 50 fast puts over a pinned 10s window.
	for i := 0; i < 50; i++ {
		m.OpHistogram(kvstore.OpPut).Record(int64(time.Millisecond))
	}
	clock = clock.Add(10 * time.Second)
	second := scrape()

	if rate := promSample(t, second, `smartmem_op_interval_rate{op="put"} `); rate != 5 {
		t.Errorf("interval rate = %g req/s, want 50/10s = 5", rate)
	}
	if n := promSample(t, second, `smartmem_op_interval_latency_seconds_count{op="put"} `); n != 50 {
		t.Errorf("interval count = %g, want 50", n)
	}
	// Interval p99 reflects only the 1ms records; the cumulative p99 is
	// still dominated by the 100ms pre-baseline batch.
	ip99 := promSample(t, second, `smartmem_op_interval_latency_seconds{op="put",quantile="0.99"} `)
	if ip99 < 0.001 || ip99 > 0.00102 {
		t.Errorf("interval p99 = %gs, want ~1ms", ip99)
	}
	if cp99 := promSample(t, second, `smartmem_op_latency_seconds{op="put",quantile="0.99"} `); cp99 < 0.09 {
		t.Errorf("cumulative p99 = %gs, want ~100ms (history must stay)", cp99)
	}

	// A quiet op stays out of the interval families entirely.
	if strings.Contains(second, `smartmem_op_interval_rate{op="get"}`) {
		t.Error("quiet op leaked into interval families")
	}

	// Third scrape with no activity: interval families disappear again.
	clock = clock.Add(10 * time.Second)
	if third := scrape(); strings.Contains(third, "smartmem_op_interval_") {
		t.Error("idle interval still exposes interval families")
	}
}
