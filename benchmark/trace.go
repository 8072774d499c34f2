package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one call across a layer boundary the benchmark can see from
// outside the program: name, start, end, and the span that caused it. Spans
// of one request share Req.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int    `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offset from the recorder's epoch
	End    int64  `json:"end_ns"`
	Pages  int    `json:"pages,omitempty"`
}

// Tracer keeps spans in memory and writes them out when the benchmark ends.
//
// Parent links come from one stack of open spans, so recording is only
// switched on where the traced calls nest on a single logical thread: the
// one-cell-at-a-time sweep runs and the depth-1 serve probe. During the
// concurrent phases only the layer timers (see layerTimer) accumulate.
type Tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []Span
	open  []int // stack of indexes into spans
	req   int
}

func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Record switches span recording on or off. A nil tracer never records.
func (t *Tracer) Record(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *Tracer) recording() bool { return t != nil && t.on.Load() }

// Begin opens a span under the innermost open span and returns its handle
// (-1 when not recording).
func (t *Tracer) Begin(name string, pages int) int {
	if !t.recording() {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, Span{ID: idx + 1, Parent: parent, Req: t.req, Name: name, Start: now, Pages: pages})
	t.open = append(t.open, idx)
	return idx
}

// BeginDetached opens a root span for work that is not on the request path
// (background compaction, the fsync ticker): it has no parent and does not
// become the parent of anything.
func (t *Tracer) BeginDetached(name string) int {
	if !t.recording() {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := len(t.spans)
	t.spans = append(t.spans, Span{ID: idx + 1, Name: name, Start: now})
	return idx
}

// End closes a span opened by Begin or BeginDetached.
func (t *Tracer) End(idx int) {
	if idx < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx].End = now
	if n := len(t.open); n > 0 && t.open[n-1] == idx {
		t.open = t.open[:n-1]
	}
}

// NextRequest starts a new request id; spans begun until the next call
// carry it.
func (t *Tracer) NextRequest() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.req++
	t.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns, per span id, the span's duration minus the part of its
// interval its child spans cover. Overlapping children (none are recorded on
// the single-stack paths, but detached ones may overlap) count once.
func SelfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of the children's
// intervals. Children arrive in start order (ids are assigned at Begin).
func covered(lo, hi int64, kids []Span) int64 {
	var total int64
	cur := lo
	for _, k := range kids {
		s, e := max(k.Start, cur), min(k.End, hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// SelfByName sums self time per span name.
func SelfByName(spans []Span) map[string]int64 {
	self := SelfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// WriteSpans writes the span file of a traced run.
func WriteSpans(path string, workload string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Schema   string           `json:"schema"`
		Workload string           `json:"workload"`
		SelfNs   map[string]int64 `json:"self_ns_by_name"`
		Spans    []Span           `json:"spans"`
	}{"smartmem/bench-spans@1", workload, SelfByName(spans), spans}
	werr := json.NewEncoder(f).Encode(doc)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// layerTimer accumulates the calls, pages and inclusive time of one
// decorated boundary. It is what the per-layer metrics are computed from;
// unlike spans it is safe under the concurrent phases.
type layerTimer struct {
	calls atomic.Int64
	pages atomic.Int64
	ns    atomic.Int64
}

func (l *layerTimer) add(pages int, d time.Duration) {
	l.calls.Add(1)
	l.pages.Add(int64(pages))
	l.ns.Add(int64(d))
}

// probe bundles what every decorator needs: the shared tracer, a switch
// that turns timing off (the traced run's own "tracing off" leg, from which
// trace.overhead_pct is computed), and the boundary's timer.
type probe struct {
	tr    *Tracer
	off   *atomic.Bool
	name  string
	timer *layerTimer
}

// call is one timed crossing of a decorated boundary.
type call struct {
	p     *probe
	idx   int
	pages int
	start time.Time
}

// enter starts timing one call; done ends it. With the switch off it costs
// one atomic load.
func (p *probe) enter(pages int) call {
	if p.off.Load() {
		return call{}
	}
	return call{p: p, idx: p.tr.Begin(p.name, pages), pages: pages, start: time.Now()}
}

// enterDetached is enter for work off the request path; see BeginDetached.
func (p *probe) enterDetached() call {
	if p.off.Load() {
		return call{}
	}
	return call{p: p, idx: p.tr.BeginDetached(p.name), start: time.Now()}
}

func (c call) done() {
	if c.p == nil {
		return
	}
	c.p.timer.add(c.pages, time.Since(c.start))
	c.p.tr.End(c.idx)
}
