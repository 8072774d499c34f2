package sim

import (
	"fmt"
	"testing"
)

// Run-ahead (Proc.Sleep moving the clock in place when its wake-up is the
// next event) must never change what a simulation does. This file proves it
// by construction: random process programs run once under a plain
// `for k.Step() {}` loop, which never runs ahead, and again under every
// loop that does — Run, RunUntil in random chunks, RunGated with a
// recording publish hook and StepWithin under random horizons — and every
// run must produce the same trace of (now, pid, action) and end in the same
// state.

// raKind is one action of a generated process program.
type raKind uint8

const (
	raSleep raKind = iota
	raAfter
	raAt
	raWait
	raSignal
	raBroadcast
	raKill
	raSpawn
	raSetLimit
)

// raOp is one step of a body. arg picks a cond, a kill slot or a spawned
// body; cb is what an After/At callback does when it fires (0 record only,
// 1 Signal, 2 Broadcast, 3 Kill).
type raOp struct {
	kind raKind
	d    Duration
	arg  int
	cb   int
}

// raProgram is a whole generated simulation: the first procs bodies are
// spawned at the start (after starts[i]); the rest are only reachable
// through raSpawn.
type raProgram struct {
	procs  int
	bodies [][]raOp
	starts []Duration
	conds  int
	limit  Time // 0: none
}

// raMaxSpawns bounds raSpawn per run so programs stay finite.
const raMaxSpawns = 4

func genRAProgram(seed uint64, maxProcs, maxOps int) *raProgram {
	r := NewRNG(seed)
	pr := &raProgram{procs: 1 + r.Intn(maxProcs), conds: 1 + r.Intn(3)}
	nbodies := pr.procs + r.Intn(3)
	quantum := Duration(1 + r.Intn(20)) // a duration many sleeps share
	dur := func() Duration {
		switch r.Intn(4) {
		case 0:
			return 0
		case 1, 2:
			return quantum
		default:
			return Duration(1 + r.Intn(40))
		}
	}
	slots := nbodies + raMaxSpawns
	for b := 0; b < nbodies; b++ {
		body := make([]raOp, 1+r.Intn(maxOps))
		for i := range body {
			o := raOp{kind: raSleep, d: dur()}
			switch x := r.Intn(20); {
			case x < 9: // sleeps dominate, as in real workloads
			case x < 11:
				o.kind, o.cb, o.arg = raAfter, r.Intn(4), r.Intn(slots)
			case x < 12:
				o.kind, o.cb, o.arg = raAt, r.Intn(4), r.Intn(slots)
			case x < 14:
				o.kind, o.arg = raWait, r.Intn(pr.conds)
			case x < 16:
				o.kind, o.arg = raSignal, r.Intn(pr.conds)
			case x < 17:
				o.kind, o.arg = raBroadcast, r.Intn(pr.conds)
			case x < 18:
				o.kind, o.arg = raKill, r.Intn(slots)
			case x < 19:
				o.kind, o.arg = raSpawn, r.Intn(nbodies)
			default:
				o.kind, o.d = raSetLimit, Duration(1+r.Intn(200))
			}
			body[i] = o
		}
		pr.bodies = append(pr.bodies, body)
	}
	for i := 0; i < pr.procs; i++ {
		pr.starts = append(pr.starts, dur())
	}
	if r.Intn(2) == 0 {
		pr.limit = Time(20 + r.Intn(400))
	}
	return pr
}

type raEntry struct {
	at   Time
	pid  int // 0: a kernel callback
	what string
}

// raOutcome is everything the runs of one program must agree on.
type raOutcome struct {
	trace   []raEntry
	now     Time
	ended   bool
	pending int
	// events and ranAhead are the kernel's Counts: a run that ran ahead
	// replaced exactly ranAhead of the plain run's events.
	events, ranAhead uint64
}

// raHarness interprets one program on one kernel.
type raHarness struct {
	t      testing.TB
	k      *Kernel
	pr     *raProgram
	conds  []*Cond
	procs  []*Proc
	spawns int
	trace  []raEntry

	gated     bool // RunGated: check every record against the published bound
	bound     Time
	published int
}

func newRAHarness(t testing.TB, pr *raProgram) *raHarness {
	h := &raHarness{t: t, k: NewKernel(1), pr: pr, bound: -1}
	for i := 0; i < pr.conds; i++ {
		h.conds = append(h.conds, NewCond(h.k))
	}
	if pr.limit > 0 {
		h.k.SetLimit(pr.limit)
	}
	for i := 0; i < pr.procs; i++ {
		h.spawn(i, pr.starts[i])
	}
	return h
}

func (h *raHarness) record(pid int, format string, args ...any) {
	now := h.k.Now()
	if h.gated && h.bound > now {
		h.t.Errorf("published bound %v exceeds the executing event's time %v", h.bound, now)
	}
	h.trace = append(h.trace, raEntry{at: now, pid: pid, what: fmt.Sprintf(format, args...)})
}

// publish is RunGated's hook: bounds must never decrease.
func (h *raHarness) publish(t Time) {
	if t < h.bound {
		h.t.Errorf("published bound went back from %v to %v", h.bound, t)
	}
	h.bound = t
	h.published++
}

func (h *raHarness) spawn(b int, d Duration) {
	h.procs = append(h.procs, h.k.SpawnAt(fmt.Sprintf("b%d", b), d, func(p *Proc) { h.body(p, b) }))
}

// kill kills the process in slot, when that slot holds one other than self.
func (h *raHarness) kill(self *Proc, slot int) {
	if slot < len(h.procs) && h.procs[slot] != self {
		h.procs[slot].Kill()
	}
}

func (h *raHarness) callback(o raOp) func(Time) {
	return func(Time) {
		h.record(0, "cb %d/%d", o.cb, o.arg)
		switch o.cb {
		case 1:
			h.conds[o.arg%len(h.conds)].Signal()
		case 2:
			h.conds[o.arg%len(h.conds)].Broadcast()
		case 3:
			h.kill(nil, o.arg)
		}
	}
}

func (h *raHarness) body(p *Proc, b int) {
	id := p.ID()
	h.record(id, "start b%d", b)
	for _, o := range h.pr.bodies[b] {
		switch o.kind {
		case raSleep:
			p.Sleep(o.d)
			h.record(id, "woke after %v", o.d)
		case raAfter:
			h.k.After(o.d, h.callback(o))
		case raAt:
			h.k.At(h.k.Now()+Time(o.d)-10, h.callback(o)) // may lie in the past
		case raWait:
			c := h.conds[o.arg]
			c.Wait(p)
			h.record(id, "signalled on %d", o.arg)
		case raSignal:
			h.conds[o.arg].Signal()
		case raBroadcast:
			h.conds[o.arg].Broadcast()
		case raKill:
			h.kill(p, o.arg)
		case raSpawn:
			if h.spawns < raMaxSpawns {
				h.spawns++
				h.spawn(o.arg, o.d)
			}
		case raSetLimit:
			h.k.SetLimit(h.k.Now() + Time(o.d))
		}
	}
	h.record(id, "end")
}

// finish captures the outcome and retires every coroutine.
func (h *raHarness) finish() raOutcome {
	ev, ra := h.k.Counts()
	out := raOutcome{trace: h.trace, now: h.k.Now(), ended: h.k.Ended(), pending: h.k.Pending(), events: ev, ranAhead: ra}
	h.k.KillAll()
	return out
}

// checkRunAhead runs the program of seed under the plain Step loop and
// under every run-ahead loop, and fails unless all runs agree. It returns
// how many wake-ups the run-ahead loops ran ahead to.
func checkRunAhead(t testing.TB, seed uint64, maxProcs, maxOps int) uint64 {
	t.Helper()
	pr := genRAProgram(seed, maxProcs, maxOps)

	ref := newRAHarness(t, pr)
	for ref.k.Step() {
	}
	want := ref.finish()
	if want.ranAhead != 0 {
		t.Fatalf("seed %d: a plain Step loop ran ahead %d times", seed, want.ranAhead)
	}

	drv := NewRNG(seed ^ 0x9e3779b97f4a7c15)
	loops := []struct {
		name  string
		drive func(h *raHarness)
	}{
		{"Run", func(h *raHarness) { h.k.Run() }},
		{"RunUntil", func(h *raHarness) {
			// Random chunks up to the reference's final time; a run the
			// limit ended is then pushed past the limit to end it the same
			// way.
			for {
				to := min(h.k.Now()+Time(drv.Intn(60)), want.now)
				if now := h.k.RunUntil(to); now != to {
					t.Errorf("seed %d: RunUntil(%v) left the clock at %v", seed, to, now)
				}
				if to == want.now {
					break
				}
			}
			if want.ended {
				h.k.RunUntil(want.now + 1)
			}
		}},
		{"RunGated", func(h *raHarness) {
			h.gated = true
			h.k.RunGated(h.publish, nil)
			// One publish per queued event it executed and one per
			// run-ahead, each before the clock moved.
			if ev, ra := h.k.Counts(); uint64(h.published) < ev+ra {
				t.Errorf("seed %d: RunGated published %d bounds for %d events and %d run-aheads", seed, h.published, ev, ra)
			}
		}},
		{"StepWithin", func(h *raHarness) {
			for h.k.StepWithin(h.k.Now() + Time(drv.Intn(80)) - 10) {
			}
		}},
	}
	var ranAhead uint64
	for _, l := range loops {
		h := newRAHarness(t, pr)
		l.drive(h)
		got := h.finish()
		ranAhead += got.ranAhead
		if d := diffRA(want, got); d != "" {
			t.Fatalf("seed %d: %s diverges from the Step loop: %s", seed, l.name, d)
		}
	}
	return ranAhead
}

func diffRA(want, got raOutcome) string {
	for i := 0; i < min(len(want.trace), len(got.trace)); i++ {
		if want.trace[i] != got.trace[i] {
			return fmt.Sprintf("trace[%d] = %+v, want %+v", i, got.trace[i], want.trace[i])
		}
	}
	switch {
	case len(want.trace) != len(got.trace):
		return fmt.Sprintf("trace has %d entries, want %d", len(got.trace), len(want.trace))
	case want.now != got.now || want.ended != got.ended || want.pending != got.pending:
		return fmt.Sprintf("final now/ended/pending = %v/%v/%d, want %v/%v/%d",
			got.now, got.ended, got.pending, want.now, want.ended, want.pending)
	case got.events+got.ranAhead != want.events:
		return fmt.Sprintf("%d events + %d run ahead, want %d events", got.events, got.ranAhead, want.events)
	}
	return ""
}

func TestRunAheadMatchesStepping(t *testing.T) {
	var ranAhead uint64
	for seed := uint64(1); seed <= 500; seed++ {
		ranAhead += checkRunAhead(t, seed, 5, 24)
	}
	// The corpus must actually exercise the fast path.
	if ranAhead == 0 {
		t.Fatal("no generated program ran ahead")
	}
}

func FuzzKernelRunAhead(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 42, 273490} {
		f.Add(seed, uint8(4), uint8(16))
	}
	f.Fuzz(func(t *testing.T, seed uint64, procs, ops uint8) {
		checkRunAhead(t, seed, 1+int(procs%8), 1+int(ops%48))
	})
}
