package main

import "testing"

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "store", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "store", Start: 20, End: 50}, // overlaps span 2: counted once
		{ID: 4, Parent: 1, Name: "store", Start: 60, End: 70},
		{ID: 5, Parent: 3, Name: "tier", Start: 25, End: 45},
		{ID: 6, Parent: 1, Name: "store", Start: 90, End: 120}, // runs past its parent: clipped
	}
	self := SelfTimes(spans)
	want := map[int]int64{
		1: 100 - (40 + 10 + 10), // [10,50) ∪ [60,70) ∪ [90,100)
		2: 20,
		3: 30 - 20,
		4: 10,
		5: 20,
		6: 30,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
	byName := SelfByName(spans)
	if byName["store"] != 20+10+10+30 || byName["tier"] != 20 || byName["request"] != 40 {
		t.Errorf("self time by name: %v", byName)
	}
}

func TestTracerNestsAndDetaches(t *testing.T) {
	tr := NewTracer()
	if tr.Begin("ignored", 0) != -1 {
		t.Fatal("a tracer records before Record(true)")
	}
	tr.Record(true)
	tr.NextRequest()
	req := tr.Begin("request", 16)
	store := tr.Begin("store", 16)
	bg := tr.BeginDetached("blob.put")
	tier := tr.Begin("tier", 4)
	tr.End(tier)
	tr.End(bg)
	tr.End(store)
	tr.End(req)
	tr.NextRequest()
	next := tr.Begin("request", 1)
	tr.End(next)

	spans := tr.Spans()
	parent := map[string]int{}
	for _, s := range spans {
		parent[s.Name+"#"+string(rune('0'+s.ID))] = s.Parent
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
	// ids are 1-based in Begin order: request=1 store=2 blob.put=3 tier=4 request=5
	want := []struct{ id, parent, req int }{{1, 0, 1}, {2, 1, 1}, {3, 0, 0}, {4, 2, 1}, {5, 0, 2}}
	for _, w := range want {
		s := spans[w.id-1]
		if s.ID != w.id || s.Parent != w.parent || s.Req != w.req {
			t.Errorf("span %+v: want parent %d, request %d", s, w.parent, w.req)
		}
	}
	var nilTracer *Tracer
	nilTracer.Record(true)
	nilTracer.End(nilTracer.Begin("x", 0))
}
