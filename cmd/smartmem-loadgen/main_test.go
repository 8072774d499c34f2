package main

import (
	"context"
	"testing"
	"time"
)

// TestLoadgenEndToEnd is the ISSUE's loadgen smoke: an in-process server,
// a short open-loop run at a rate this container always sustains, then
// hard assertions — zero transport errors, the full schedule sent and
// answered, and ordered quantiles in every histogram. It runs under
// -race in CI, so it also exercises the concurrent record/merge path of
// internal/hdr through the real wire pipeline.
func TestLoadgenEndToEnd(t *testing.T) {
	addr, stop, err := StartInprocess(1<<12, 2, 4096, "", 0)
	if err != nil {
		t.Fatalf("StartInprocess: %v", err)
	}
	defer stop()

	cfg := Config{
		Addr:     addr,
		Conns:    2,
		Rate:     500,
		Duration: 2 * time.Second,
		Mix:      Mix{Put: 60, Get: 30, Flush: 10},
		Keys:     512,
		Arrival:  ArrivalPoisson,
		PageSize: 4096,
		Seed:     42,
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	if res.Errors != 0 {
		t.Fatalf("transport errors: %d (want 0)", res.Errors)
	}
	if res.Sent == 0 || res.Complete != res.Sent {
		t.Fatalf("sent %d completed %d: every scheduled op must complete", res.Sent, res.Complete)
	}
	// Open-loop invariant: the schedule is fixed by the arrival process,
	// so the sent count tracks rate*duration regardless of server speed.
	want := cfg.Rate * cfg.Duration.Seconds()
	if f := float64(res.Sent); f < 0.5*want || f > 1.5*want {
		t.Errorf("sent %d ops, want about %.0f (open-loop schedule)", res.Sent, want)
	}
	if res.Elapsed <= 0 {
		t.Errorf("non-positive elapsed %v", res.Elapsed)
	}

	all, ok := res.Ops["all"]
	if !ok {
		t.Fatal(`missing "all" histogram`)
	}
	if all.Count() != uint64(res.Complete) {
		t.Errorf("all histogram count %d != completed %d", all.Count(), res.Complete)
	}
	var perOp uint64
	for name, h := range res.Ops {
		if name == "all" {
			continue
		}
		perOp += h.Count()
	}
	if perOp != all.Count() {
		t.Errorf("per-op counts sum to %d, all records %d", perOp, all.Count())
	}
	for name, h := range res.Ops {
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		if s.P50 <= 0 || s.P50 > s.P99 || s.P99 > s.P999 || s.P999 > s.Max {
			t.Errorf("%s: quantiles out of order: p50=%d p99=%d p999=%d max=%d",
				name, s.P50, s.P99, s.P999, s.Max)
		}
	}
}

// TestLoadgenCancel: an interrupted run returns early with whatever it
// measured instead of hanging on the remaining schedule.
func TestLoadgenCancel(t *testing.T) {
	addr, stop, err := StartInprocess(1<<12, 1, 4096, "", 0)
	if err != nil {
		t.Fatalf("StartInprocess: %v", err)
	}
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Run(ctx, Config{
		Addr:     addr,
		Conns:    1,
		Rate:     100,
		Duration: time.Minute,
		PageSize: 4096,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("cancel took %v, want prompt return", took)
	}
	if res.Errors != 0 {
		t.Errorf("transport errors after cancel: %d", res.Errors)
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("put=1,get=8,flush=1")
	if err != nil || m != (Mix{Put: 1, Get: 8, Flush: 1}) {
		t.Fatalf("ParseMix: %v %v", m, err)
	}
	if m, err := ParseMix("get=100"); err != nil || m.Get != 100 || m.Put != 0 {
		t.Fatalf("subset mix: %v %v", m, err)
	}
	for _, bad := range []string{"", "put=-1", "scan=5", "put"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q): want error", bad)
		}
	}
}
