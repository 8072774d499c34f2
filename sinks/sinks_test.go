package sinks_test

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"smartmem"
	"smartmem/internal/hdr"
	"smartmem/sinks"
)

// nodeConfig is a small oversubscribed node: two analytics VMs whose
// datasets exceed RAM against a sliver of tmem, so a run samples, sets
// targets and (in a ring) overflows to its peer within milliseconds.
func nodeConfig(seed uint64) smartmem.Config {
	wl := smartmem.InMemoryAnalytics{
		Label: "run", DatasetBytes: 48 * smartmem.MiB, Passes: 2,
		CPUPerPageLoad: 400 * smartmem.Duration(time.Microsecond),
		CPUPerPagePass: 2500 * smartmem.Duration(time.Microsecond),
	}
	return smartmem.Config{
		TmemBytes:   16 * smartmem.MiB,
		TmemEnabled: true,
		Policy:      smartmem.SmartAlloc{P: 2},
		Seed:        seed,
		VMs: []smartmem.VMSpec{
			{ID: 1, Name: "VM1", RAMBytes: 32 * smartmem.MiB, Workload: wl},
			{ID: 2, Name: "VM2", RAMBytes: 32 * smartmem.MiB, Workload: wl},
		},
	}
}

// run executes cfg (as an n-node ring when nodes > 1) with sink attached and
// returns the result and every event an observer saw, in delivery order.
func run(t *testing.T, nodes int, sink smartmem.Sink, opts ...smartmem.SessionOption) (*smartmem.Result, []smartmem.Event) {
	t.Helper()
	var events []smartmem.Event
	opts = append(opts,
		smartmem.WithCluster(nodes),
		smartmem.WithObserver(smartmem.ObserverFunc(func(e smartmem.Event) { events = append(events, e) })),
		smartmem.WithSink(sink),
	)
	sess, err := smartmem.NewSession(nodeConfig(7), opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events observed")
	}
	return res, events
}

// nodeOf returns an event's node tag ("" single-node and for RunFinished).
func nodeOf(e smartmem.Event) string {
	switch ev := e.(type) {
	case smartmem.VMStarted:
		return ev.Node
	case smartmem.Milestone:
		return ev.Node
	case smartmem.RunCompleted:
		return ev.Node
	case smartmem.SampleTick:
		return ev.Node
	case smartmem.TargetUpdate:
		return ev.Node
	}
	return ""
}

// ndjsonLines decodes every line of an NDJSON stream.
func ndjsonLines(t *testing.T, raw []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v", len(out)+1, err)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// The NDJSON sink writes one line per event, in delivery order, then one
// result record; a single-node stream carries no node tags, and an
// installed clock stamps every event line.
func TestNDJSONSingleNode(t *testing.T) {
	var buf bytes.Buffer
	wall := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	res, events := run(t, 1, sinks.NDJSON(&buf), smartmem.WithClock(func() time.Time { return wall }))

	lines := ndjsonLines(t, buf.Bytes())
	if len(lines) != len(events)+1 {
		t.Fatalf("%d lines for %d events, want one per event plus the result", len(lines), len(events))
	}
	for i, e := range events {
		m := lines[i]
		if m["event"] != e.Kind() {
			t.Fatalf("line %d: event %v, want %s", i, m["event"], e.Kind())
		}
		if _, tagged := m["node"]; tagged {
			t.Errorf("line %d: single-node event carries a node tag: %v", i, m)
		}
		if m["wall"] != wall.Format(time.RFC3339Nano) {
			t.Errorf("line %d: wall = %v", i, m["wall"])
		}
	}
	if last := lines[len(events)-1]; last["event"] != "run-finished" || last["cancelled"] != false {
		t.Errorf("last event line = %v, want an uncancelled run-finished", last)
	}
	rec := lines[len(lines)-1]
	if rec["record"] != "result" {
		t.Fatalf("final line = %v, want the result record", rec)
	}
	doc := rec["result"].(map[string]any)
	if doc["policy"] != res.PolicyName || len(doc["runs"].([]any)) != len(res.Runs) {
		t.Errorf("result record policy %v runs %d, want %s and %d",
			doc["policy"], len(doc["runs"].([]any)), res.PolicyName, len(res.Runs))
	}
	if _, ok := doc["nodes"]; ok {
		t.Error("single-node result record has node summaries")
	}
}

// A 2-node cluster's events reach the NDJSON sink node-tagged, with
// node-prefixed VM names, in the order the driver delivered them: by
// virtual time, and at equal times node by node.
func TestNDJSONClusterStream(t *testing.T) {
	var buf bytes.Buffer
	_, events := run(t, 2, sinks.NDJSON(&buf))
	lines := ndjsonLines(t, buf.Bytes())
	if len(lines) != len(events)+1 {
		t.Fatalf("%d lines for %d events", len(lines), len(events))
	}

	nodes := map[string]int{}
	for i, e := range events[:len(events)-1] {
		m := lines[i]
		node := nodeOf(e)
		if m["event"] != e.Kind() || m["node"] != node {
			t.Fatalf("line %d = %v, want %s on %q", i, m, e.Kind(), node)
		}
		if node != "n0" && node != "n1" {
			t.Fatalf("event %d (%s) has node tag %q", i, e.Kind(), node)
		}
		nodes[node]++
		// A node's own VMs carry its prefix; its MM's target updates may
		// also name the peer's remote-guest account ("n0/remote" on n1).
		prefix := node + "/"
		if e.Kind() == "target-update" {
			prefix = "n"
		}
		if vm, ok := m["vm"].(string); ok && !strings.HasPrefix(vm, prefix) {
			t.Errorf("line %d (%s on %s): vm %q lacks a node prefix", i, e.Kind(), node, vm)
		}
	}
	if nodes["n0"] == 0 || nodes["n1"] == 0 {
		t.Errorf("events per node = %v, want both nodes", nodes)
	}
	if _, ok := events[len(events)-1].(smartmem.RunFinished); !ok {
		t.Fatalf("last event is %T, want RunFinished", events[len(events)-1])
	}
	inOrder := sort.SliceIsSorted(events[:len(events)-1], func(a, b int) bool {
		ea, eb := events[a], events[b]
		if ea.When() != eb.When() {
			return ea.When() < eb.When()
		}
		return nodeOf(ea) < nodeOf(eb)
	})
	if !inOrder {
		t.Error("cluster events are not in (virtual time, node) order")
	}
}

// The JSON sink buffers the run into one document: the schema tag, every
// event, and a result whose cluster summary breaks the totals down per
// node.
func TestJSONClusterSummary(t *testing.T) {
	var buf bytes.Buffer
	res, events := run(t, 2, sinks.JSON(&buf))

	var doc struct {
		Schema string           `json:"schema"`
		Events []map[string]any `json:"events"`
		Result struct {
			Policy      string `json:"policy"`
			SampleTicks uint64 `json:"sample_ticks"`
			DiskOps     uint64 `json:"disk_ops"`
			VMs         []struct {
				Name string `json:"name"`
			} `json:"vms"`
			Nodes []struct {
				Name        string         `json:"name"`
				SampleTicks uint64         `json:"sample_ticks"`
				DiskOps     uint64         `json:"disk_ops"`
				Remote      map[string]any `json:"remote_tier"`
			} `json:"nodes"`
			Series []struct {
				Name string `json:"name"`
			} `json:"series"`
		} `json:"result"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "smartmem/run@1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	if len(doc.Events) != len(events) {
		t.Errorf("document holds %d events, observer saw %d", len(doc.Events), len(events))
	}
	r := doc.Result
	if r.Policy != res.PolicyName || r.SampleTicks != res.SampleTicks || r.DiskOps != res.DiskOps {
		t.Errorf("result = %s ticks=%d disk=%d, want %s ticks=%d disk=%d",
			r.Policy, r.SampleTicks, r.DiskOps, res.PolicyName, res.SampleTicks, res.DiskOps)
	}
	if len(r.Nodes) != 2 || r.Nodes[0].Name != "n0" || r.Nodes[1].Name != "n1" {
		t.Fatalf("nodes = %+v", r.Nodes)
	}
	var ticks, diskOps uint64
	for _, n := range r.Nodes {
		ticks += n.SampleTicks
		diskOps += n.DiskOps
		if n.Remote == nil {
			t.Errorf("node %s has no remote_tier summary", n.Name)
		}
	}
	if ticks != r.SampleTicks || diskOps != r.DiskOps {
		t.Errorf("per-node sums ticks=%d disk=%d, totals %d and %d", ticks, diskOps, r.SampleTicks, r.DiskOps)
	}
	if len(r.VMs) != 4 || r.VMs[0].Name != "n0/VM1" || r.VMs[3].Name != "n1/VM2" {
		t.Errorf("vms = %+v", r.VMs)
	}
	series := map[string]bool{}
	for _, s := range r.Series {
		series[s.Name] = true
	}
	for _, name := range []string{"n0/free-tmem", "n1/free-tmem", "tmem-n0/VM1", "tmem-n1/VM2"} {
		if !series[name] {
			t.Errorf("series %q missing", name)
		}
	}
}

// The CSV sink writes one header and five columns per row: one row per
// lifecycle event, and per sampling tick one used and one target row per
// VM plus one free-tmem row.
func TestCSVRows(t *testing.T) {
	var buf bytes.Buffer
	res, events := run(t, 1, sinks.CSV(&buf))
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rows[0], ","); got != "event,t_seconds,vm,label,value" {
		t.Fatalf("header = %q", got)
	}
	want := 1
	for _, e := range events {
		if st, ok := e.(smartmem.SampleTick); ok {
			want += 2*len(st.Stats.VMs) + 1
		} else {
			want++
		}
	}
	if len(rows) != want {
		t.Errorf("%d rows, want %d for %d events", len(rows), want, len(events))
	}
	count := map[string]int{}
	for _, row := range rows[1:] {
		count[row[0]]++
	}
	if count["run-completed"] != len(res.Runs) || count["free-tmem"] != int(res.SampleTicks) {
		t.Errorf("rows by event = %v, want %d run-completed and %d free-tmem",
			count, len(res.Runs), res.SampleTicks)
	}
	if last := rows[len(rows)-1]; last[0] != "run-finished" || last[4] != "0" {
		t.Errorf("last row = %v, want an uncancelled run-finished", last)
	}
}

// errWriter fails every write after the first n bytes.
type errWriter struct{ n int }

var errFull = errors.New("disk full")

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, errFull
	}
	w.n -= len(p)
	return len(p), nil
}

// A sink's write error stops delivery to it and surfaces from Session.Run
// without costing the caller the Result.
func TestSinkWriteErrorSurfaces(t *testing.T) {
	for name, mk := range map[string]func(io.Writer) smartmem.Sink{
		"csv":    func(w io.Writer) smartmem.Sink { return sinks.CSV(w) },
		"ndjson": func(w io.Writer) smartmem.Sink { return sinks.NDJSON(w) },
		"json":   func(w io.Writer) smartmem.Sink { return sinks.JSON(w) },
	} {
		t.Run(name, func(t *testing.T) {
			sess, err := smartmem.NewSession(nodeConfig(7), smartmem.WithSink(mk(&errWriter{n: 64})))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Run()
			if !errors.Is(err, errFull) {
				t.Errorf("Run error = %v, want the sink's write error", err)
			}
			if res == nil || len(res.Runs) == 0 {
				t.Errorf("result lost to a sink error: %+v", res)
			}
		})
	}
}

// EncodeHistogram flattens an hdr snapshot into nanosecond fields.
func TestEncodeHistogram(t *testing.T) {
	h := hdr.New()
	for _, v := range []int64{1000, 2000, 3000, 4000} {
		h.Record(v)
	}
	m := sinks.EncodeHistogram(h.Snapshot())
	for _, k := range []string{"count", "mean_ns", "p50_ns", "p90_ns", "p99_ns", "p999_ns", "max_ns"} {
		if _, ok := m[k]; !ok {
			t.Errorf("field %q missing from %v", k, m)
		}
	}
	if m["count"] != uint64(4) {
		t.Errorf("count = %v, want 4", m["count"])
	}
	if p50, max := m["p50_ns"].(int64), m["max_ns"].(int64); p50 <= 0 || p50 > max {
		t.Errorf("p50 %d, max %d", p50, max)
	}
	if mean := m["mean_ns"].(float64); mean < 2400 || mean > 2600 {
		t.Errorf("mean = %g ns, want ~2500", mean)
	}
}
