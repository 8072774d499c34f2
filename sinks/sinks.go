// Package sinks provides the built-in result sinks of the Session API:
// pluggable serializers that consume a run's typed event stream and final
// result and write machine-readable artifacts for the figures pipeline and
// the CLIs.
//
//   - NDJSON streams one JSON object per event as it happens (live
//     observation, log shipping), ending with a result object;
//   - JSON buffers the whole run and writes a single indented document
//     (the golden-file / archival format);
//   - CSV writes a flat event table (spreadsheet-friendly).
//
// All three are deterministic for a deterministic run: wall-clock
// timestamps are only added when a clock is installed (see
// smartmem.WithClock).
package sinks

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"smartmem"
	"smartmem/internal/mem"
	"smartmem/internal/metrics"
	"smartmem/internal/tmem"
)

// Encode flattens one event into the JSON-ready form shared by the NDJSON
// and JSON sinks: an "event" kind, the virtual time "t" in seconds, and the
// event's own fields. Exported so custom sinks and the CLIs can reuse the
// wire shape.
func Encode(e smartmem.Event) map[string]any {
	m := map[string]any{
		"event": e.Kind(),
		"t":     round(e.When().Seconds()),
	}
	switch ev := e.(type) {
	case smartmem.VMStarted:
		addNode(m, ev.Node)
		m["vm"] = ev.VM
		m["id"] = int64(ev.ID)
		m["workload"] = ev.Workload
	case smartmem.Milestone:
		addNode(m, ev.Node)
		m["vm"] = ev.VM
		m["label"] = ev.Label
	case smartmem.RunCompleted:
		addNode(m, ev.Node)
		m["vm"] = ev.Record.VM
		m["label"] = ev.Record.Label
		m["start"] = round(ev.Record.Start.Seconds())
		m["duration"] = round(ev.Record.Duration().Seconds())
	case smartmem.SampleTick:
		addNode(m, ev.Node)
		m["seq"] = ev.Seq
		m["free_tmem"] = int64(ev.Stats.FreeTmem)
		m["total_tmem"] = int64(ev.Stats.TotalTmem)
		// Emitted only when a capacity-amplifying tier reported one, keeping
		// compression-off encodings (and the historical goldens) unchanged.
		if ev.Stats.EffectiveTmem != 0 {
			m["effective_tmem"] = int64(ev.Stats.EffectiveTmem)
		}
		vms := make([]map[string]any, 0, len(ev.Stats.VMs))
		for _, v := range ev.Stats.VMs {
			vms = append(vms, map[string]any{
				"vm":     vmName(ev.VMNames, v.ID),
				"id":     int64(v.ID),
				"used":   int64(v.TmemUsed),
				"target": encodeTarget(v.MMTarget),
			})
		}
		m["vms"] = vms
	case smartmem.TargetUpdate:
		addNode(m, ev.Node)
		m["vm"] = ev.VM
		m["id"] = int64(ev.ID)
		m["target"] = encodeTarget(ev.Target)
	case smartmem.RunFinished:
		m["cancelled"] = ev.Cancelled
	}
	return m
}

// addNode tags cluster events with their node; single-node events carry no
// tag, which keeps their encoding (and the historical goldens) unchanged.
func addNode(m map[string]any, node string) {
	if node != "" {
		m["node"] = node
	}
}

// vmName resolves a VM's display name from a SampleTick's name table,
// matching the labels the other events carry.
func vmName(names map[tmem.VMID]string, id tmem.VMID) string {
	if n, ok := names[id]; ok {
		return n
	}
	return fmt.Sprintf("vm%d", id)
}

// encodeTarget maps the "no limit" sentinel to -1 so consumers need not
// know the in-memory representation.
func encodeTarget(p mem.Pages) int64 {
	if p == tmem.Unlimited {
		return -1
	}
	return int64(p)
}

// round keeps serialized times at millisecond resolution: stable across
// formatting changes and precise enough for 1 Hz sampling.
func round(s float64) float64 { return float64(int64(s*1e3+0.5)) / 1e3 }

// jsonBlock is the metrics.Visitor that writes a stats block into a JSON
// object under the fields' declared names. Time fields are written in
// seconds, with a _seconds suffix; wall-clock ones are left out, so the
// result document repeats exactly for a seed (the golden comparisons).
type jsonBlock map[string]any

func (m jsonBlock) Uint64(name, _ string, k metrics.Kind, v *uint64) { m.set(name, k, *v, float64(*v)) }
func (m jsonBlock) Int64(name, _ string, k metrics.Kind, v *int64)   { m.set(name, k, *v, float64(*v)) }
func (m jsonBlock) Bool(name, _ string, k metrics.Kind, v *bool)     { m.set(name, k, *v, 0) }

func (m jsonBlock) set(name string, k metrics.Kind, v any, f float64) {
	switch k {
	case metrics.WallNanos:
	case metrics.VirtualNanos:
		m[name+"_seconds"] = round(f / 1e9)
	default:
		m[name] = v
	}
}

func encodeBlock(b metrics.Block) map[string]any {
	m := jsonBlock{}
	b.Fields(m)
	return m
}

// encodeCompressed adds the derived compression ratio to the tier's block.
func encodeCompressed(s *tmem.CompressedTierStats) map[string]any {
	m := encodeBlock(s)
	m["ratio"] = round(s.Ratio())
	return m
}

// EncodeResult flattens a run result into its JSON document form. A nil
// result encodes as nil (a run that failed before producing anything).
func EncodeResult(r *smartmem.Result) map[string]any {
	if r == nil {
		return nil
	}
	doc := map[string]any{
		"policy":            r.PolicyName,
		"seed":              r.Seed,
		"end_seconds":       round(r.EndTime.Seconds()),
		"hit_limit":         r.HitLimit,
		"cancelled":         r.Cancelled,
		"sample_ticks":      r.SampleTicks,
		"mm_batches_sent":   r.MMBatchesSent,
		"disk_ops":          r.DiskOps,
		"disk_busy_seconds": round(r.DiskBusy.Seconds()),
	}
	if r.Compressed != nil {
		doc["compressed_tier"] = encodeCompressed(r.Compressed)
	}
	if r.Durable != nil {
		doc["durable_tier"] = encodeBlock(r.Durable)
	}
	runs := make([]map[string]any, 0, len(r.Runs))
	for _, rec := range r.Runs {
		runs = append(runs, map[string]any{
			"vm":       rec.VM,
			"label":    rec.Label,
			"start":    round(rec.Start.Seconds()),
			"end":      round(rec.End.Seconds()),
			"duration": round(rec.Duration().Seconds()),
		})
	}
	doc["runs"] = runs
	vms := make([]map[string]any, 0, len(r.VMs))
	for _, vm := range r.VMs {
		vms = append(vms, map[string]any{
			"name":   vm.Name,
			"id":     int64(vm.ID),
			"kernel": encodeBlock(&vm.Kernel),
			"tmem":   encodeBlock(&vm.Tmem),
		})
	}
	doc["vms"] = vms
	if len(r.Nodes) > 0 {
		nodes := make([]map[string]any, 0, len(r.Nodes))
		for _, n := range r.Nodes {
			nd := map[string]any{
				"name":              n.Name,
				"policy":            n.PolicyName,
				"sample_ticks":      n.SampleTicks,
				"mm_batches_sent":   n.MMBatchesSent,
				"disk_ops":          n.DiskOps,
				"disk_busy_seconds": round(n.DiskBusy.Seconds()),
			}
			if n.Remote != nil {
				nd["remote_tier"] = encodeBlock(n.Remote)
			}
			if n.Compressed != nil {
				nd["compressed_tier"] = encodeCompressed(n.Compressed)
			}
			if n.Durable != nil {
				nd["durable_tier"] = encodeBlock(n.Durable)
			}
			nodes = append(nodes, nd)
		}
		doc["nodes"] = nodes
	}
	if r.Series != nil {
		series := make([]map[string]any, 0)
		for _, name := range r.Series.Names() {
			s := r.Series.Get(name)
			points := make([][2]float64, 0, s.Len())
			for _, p := range s.Points() {
				points = append(points, [2]float64{round(p.T), p.V})
			}
			series = append(series, map[string]any{"name": name, "points": points})
		}
		doc["series"] = series
	}
	return doc
}

// --- NDJSON ---

// NDJSONSink streams events as newline-delimited JSON; see NDJSON.
type NDJSONSink struct {
	w     io.Writer
	clock func() time.Time
}

// NDJSON returns a sink that writes one JSON object per event to w as the
// run progresses, followed by a final {"record":"result", ...} object on
// Close. Suited to live observation and log shipping.
func NDJSON(w io.Writer) *NDJSONSink { return &NDJSONSink{w: w} }

// SetClock installs a wall clock; each line then carries a "wall"
// timestamp (RFC 3339). Wired automatically by smartmem.WithClock.
func (s *NDJSONSink) SetClock(now func() time.Time) { s.clock = now }

// Event implements smartmem.Sink.
func (s *NDJSONSink) Event(e smartmem.Event) error {
	m := Encode(e)
	if s.clock != nil {
		m["wall"] = s.clock().UTC().Format(time.RFC3339Nano)
	}
	return writeJSONLine(s.w, m)
}

// Close implements smartmem.Sink.
func (s *NDJSONSink) Close(r *smartmem.Result) error {
	return writeJSONLine(s.w, map[string]any{"record": "result", "result": EncodeResult(r)})
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// --- JSON ---

// JSONSink buffers the run and writes one document on Close; see JSON.
type JSONSink struct {
	w      io.Writer
	clock  func() time.Time
	events []map[string]any
}

// JSON returns a sink that buffers every event and writes a single
// indented JSON document {"schema", "events", "result"} when the run ends —
// the archival/golden-file format.
func JSON(w io.Writer) *JSONSink { return &JSONSink{w: w} }

// SetClock installs a wall clock; events then carry "wall" timestamps.
func (s *JSONSink) SetClock(now func() time.Time) { s.clock = now }

// Event implements smartmem.Sink.
func (s *JSONSink) Event(e smartmem.Event) error {
	m := Encode(e)
	if s.clock != nil {
		m["wall"] = s.clock().UTC().Format(time.RFC3339Nano)
	}
	s.events = append(s.events, m)
	return nil
}

// Close implements smartmem.Sink.
func (s *JSONSink) Close(r *smartmem.Result) error {
	doc := map[string]any{
		"schema": "smartmem/run@1",
		"events": s.events,
		"result": EncodeResult(r),
	}
	enc := json.NewEncoder(s.w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// --- CSV ---

// CSVSink writes a flat event table; see CSV.
type CSVSink struct {
	w      io.Writer
	wroteH bool
	err    error
}

// CSV returns a sink that writes events as flat CSV rows
// (event,t_seconds,vm,label,value): lifecycle rows for starts, milestones
// and completed runs, and per-VM tmem-used/target plus free-tmem rows for
// every sampling tick — a long-format table ready for spreadsheet or
// dataframe tooling.
func CSV(w io.Writer) *CSVSink { return &CSVSink{w: w} }

func (s *CSVSink) row(event string, t float64, vm, label string, value any) {
	if s.err != nil {
		return
	}
	if !s.wroteH {
		s.wroteH = true
		if _, err := fmt.Fprintln(s.w, "event,t_seconds,vm,label,value"); err != nil {
			s.err = err
			return
		}
	}
	val := ""
	switch v := value.(type) {
	case nil:
	case float64:
		val = fmt.Sprintf("%g", v)
	default:
		val = fmt.Sprint(v)
	}
	if _, err := fmt.Fprintf(s.w, "%s,%.3f,%s,%s,%s\n", event, t, vm, label, val); err != nil {
		s.err = err
	}
}

// Event implements smartmem.Sink.
func (s *CSVSink) Event(e smartmem.Event) error {
	t := e.When().Seconds()
	switch ev := e.(type) {
	case smartmem.VMStarted:
		s.row("vm-started", t, ev.VM, ev.Workload, nil)
	case smartmem.Milestone:
		s.row("milestone", t, ev.VM, ev.Label, nil)
	case smartmem.RunCompleted:
		s.row("run-completed", t, ev.Record.VM, ev.Record.Label, round(ev.Record.Duration().Seconds()))
	case smartmem.SampleTick:
		for _, v := range ev.Stats.VMs {
			name := vmName(ev.VMNames, v.ID)
			s.row("tmem-used", t, name, "", int64(v.TmemUsed))
			s.row("tmem-target", t, name, "", encodeTarget(v.MMTarget))
		}
		s.row("free-tmem", t, "", "", int64(ev.Stats.FreeTmem))
	case smartmem.TargetUpdate:
		s.row("target-update", t, ev.VM, "", encodeTarget(ev.Target))
	case smartmem.RunFinished:
		s.row("run-finished", t, "", "", boolInt(ev.Cancelled))
	}
	return s.err
}

// Close implements smartmem.Sink.
func (s *CSVSink) Close(*smartmem.Result) error { return s.err }

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
