// Package sim implements a small deterministic discrete-event simulation
// kernel used as the execution substrate for the SmarTmem node model.
//
// The kernel follows the classic process-interaction style: each simulated
// activity (a virtual machine's vCPU, the memory-manager tick loop, a
// workload driver) is a Proc, a coroutine created with iter.Pull. The kernel
// resumes a process by calling its next function and the process parks by
// yielding, so a process switch is a direct coroutine switch on the calling
// thread: no channel, no pass through the Go scheduler, and the whole
// simulation runs on whichever goroutine calls Step. At any instant exactly
// one process is runnable; everything else is parked either on the event
// queue (waiting for virtual time to advance) or on a condition (waiting to
// be signalled). This makes runs fully deterministic for a given seed and
// program, which the experiment harness relies on to keep paper-figure
// reproductions stable.
//
// Virtual time is an int64 nanosecond count starting at zero. Ties in the
// event queue are broken by a monotonically increasing sequence number so
// that scheduling order never depends on heap internals.
//
// A process whose wake-up is the next event keeps running: when nothing is
// queued at or before the time a Sleep would wake at, and that time is
// within the limit and the driving loop's horizon, Sleep moves the clock in
// place and returns without a switch (run-ahead). The horizon is the
// latest time the loop lets the kernel reach without returning to it: the
// limit for Run and RunGated (which publishes each run-ahead time before
// the clock moves), t for RunUntil(t), the caller's bound for StepWithin,
// and none for Step and KillAll's drain, so a bare Step is still exactly
// one event. The event order is the same as without run-ahead, event for
// event.
package sim

import (
	"fmt"
	"iter"
	"math"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration so the usual constants (time.Millisecond, ...) convert
// directly.
type Duration int64

// Common durations, re-exported so callers do not need both packages.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time. Used as a sentinel for
// "never".
const MaxTime = Time(math.MaxInt64)

// Seconds converts a virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Std converts a virtual duration to a time.Duration for printing.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Seconds converts a virtual duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (t Time) String() string { return time.Duration(t).String() }

// event is a scheduled wake-up of a process or a fire-once callback. Events
// are plain values held directly in the kernel's heap slice: scheduling one
// performs no allocation and no interface boxing — the hot path of every
// simulated nanosecond (see DESIGN.md §9, "Hot paths and allocation
// budget").
type event struct {
	at   Time
	seq  uint64
	proc *Proc      // non-nil: wake this parked process
	fn   func(Time) // non-nil: run this callback inline in the kernel loop
}

// before reports whether a orders before b: earlier time first, ties broken
// by the monotonically increasing schedule sequence so order never depends
// on heap internals.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is an index-based binary min-heap of event values. The
// container/heap machinery is deliberately not used: it forces events
// behind pointers and moves them through interface{} on every push and pop,
// which costs one heap allocation per scheduling point. The hand-rolled
// sift operations below work on the slice in place.
type eventQueue []event

// push inserts e, restoring the heap order by sifting up.
func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	s := *q
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
}

// pop removes and returns the minimum event.
func (q *eventQueue) pop() event {
	s := *q
	min := s[0]
	last := len(s) - 1
	e := s[last]
	s[last] = event{} // release the proc/fn references
	s = s[:last]
	*q = s
	if last > 0 {
		// Sift e down from the root into the hole pop left.
		i := 0
		for {
			child := 2*i + 1
			if child >= last {
				break
			}
			if r := child + 1; r < last && s[r].before(&s[child]) {
				child = r
			}
			if !s[child].before(&e) {
				break
			}
			s[i] = s[child]
			i = child
		}
		s[i] = e
	}
	return min
}

// noHorizon is the horizon outside the event loops: no wake-up time is at
// or below it, so no process runs ahead.
const noHorizon = Time(-1)

// Kernel is a discrete-event simulation instance. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now   Time
	seq   uint64
	queue eventQueue
	procs []*Proc // by PID (procs[id-1]); an entry is nil once its process finished
	live  int     // unfinished processes (KillAll's drain condition)
	ended bool
	limit Time // hard stop; MaxTime when unset
	rng   *RNG

	// horizon is the latest time the driving loop lets a sleeping process
	// run ahead to (Proc.Sleep); publish, set only by RunGated, announces
	// each run-ahead time before the clock moves to it. Every entry point
	// sets both.
	horizon Time
	publish func(Time)

	events, ranAhead uint64 // Counts

	panicVal any // re-raised from dispatch if a process panicked
}

// NewKernel creates a simulation kernel with the given RNG seed.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{limit: MaxTime, rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// RNG returns the kernel's deterministic random number generator.
// Processes must derive their own streams via RNG.Split for independence.
func (k *Kernel) RNG() *RNG { return k.rng }

// SetLimit sets a hard virtual-time stop. When the clock would pass limit,
// Run returns. A zero or negative limit is ignored.
func (k *Kernel) SetLimit(limit Time) {
	if limit > 0 {
		k.limit = limit
	}
}

// scheduleProc inserts a process wake-up at absolute virtual time at.
func (k *Kernel) scheduleProc(at Time, p *Proc) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at=%d now=%d", at, k.now))
	}
	k.seq++
	k.queue.push(event{at: at, seq: k.seq, proc: p})
}

// scheduleFn inserts a callback firing at absolute virtual time at.
func (k *Kernel) scheduleFn(at Time, fn func(Time)) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at=%d now=%d", at, k.now))
	}
	k.seq++
	k.queue.push(event{at: at, seq: k.seq, fn: fn})
}

// After schedules fn to run at now+d inside the kernel loop (no process
// context, no coroutine switch). fn receives the firing time.
func (k *Kernel) After(d Duration, fn func(Time)) {
	if d < 0 {
		d = 0
	}
	k.scheduleFn(k.now+Time(d), fn)
}

// At schedules fn at an absolute virtual time (clamped to now).
func (k *Kernel) At(t Time, fn func(Time)) {
	if t < k.now {
		t = k.now
	}
	k.scheduleFn(t, fn)
}

// Spawn creates a new process running body and schedules it to start at the
// current virtual time (after d if given via SpawnAt). The body runs as a
// coroutine in strict alternation with the kernel.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	return k.SpawnAt(name, 0, body)
}

// SpawnAt creates a process whose body begins executing after delay d.
func (k *Kernel) SpawnAt(name string, d Duration, body func(p *Proc)) *Proc {
	p := &Proc{k: k, id: len(k.procs) + 1, name: name}
	// The coroutine is never stopped from outside: a killed process is
	// resumed once more and unwinds itself (see Proc.park), so its deferred
	// calls run like any other return path.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.run(body)
	})
	k.procs = append(k.procs, p)
	k.live++
	k.scheduleProc(k.now+Time(d), p)
	return p
}

// dispatch resumes p and returns when p parks or finishes.
func (k *Kernel) dispatch(p *Proc) {
	p.next()
	if p.finished {
		// The coroutine unwound during this dispatch; retire it so KillAll's
		// drain and Procs() never rescan dead entries.
		k.live--
		k.procs[p.id-1] = nil
	}
	if k.panicVal != nil {
		panic(k.panicVal)
	}
}

// runAhead is Proc.Sleep's fast path: when the sleeper's wake-up at t
// would be the very next event the driving loop executes — nothing queued
// at or before t, t within the limit and the horizon — it moves the clock
// to t in place and reports true, skipping the push, the two coroutine
// switches and the pop. The event order is unchanged: the wake-up is
// exactly the event the kernel would pop next, and the sequence number it
// skips only ever broke ties between queued events.
func (k *Kernel) runAhead(t Time) bool {
	if t > k.horizon || t > k.limit || (len(k.queue) > 0 && k.queue[0].at <= t) {
		return false
	}
	if k.publish != nil {
		k.publish(t)
	}
	k.now = t
	k.ranAhead++
	return true
}

// Step executes the single earliest pending event. It reports false when
// the queue is empty or the time limit has been reached. No process runs
// ahead, so a Step is always exactly one event.
func (k *Kernel) Step() bool { return k.StepWithin(noHorizon) }

// StepWithin executes the earliest pending event like Step, but the process
// it wakes may run ahead (see Proc.Sleep) to any time up to horizon: the
// driving loop's promise that nothing outside this kernel happens before
// then.
func (k *Kernel) StepWithin(horizon Time) bool {
	k.horizon, k.publish = horizon, nil
	return k.step(MaxTime)
}

// step is the one event loop body every entry point drives: it executes the
// earliest pending event if that is at or before until, skipping stale
// wake-ups on the way.
func (k *Kernel) step(until Time) bool {
	for len(k.queue) > 0 {
		if k.queue[0].at > until {
			return false
		}
		if k.queue[0].at > k.limit {
			k.now = k.limit
			k.ended = true
			return false
		}
		e := k.queue.pop()
		k.now = e.at
		if e.fn != nil {
			k.events++
			e.fn(e.at)
			return true
		}
		// A wake-up for a finished process is stale; skip it. Cancelled
		// processes are dispatched once more so they observe the
		// cancellation and unwind.
		if e.proc != nil && !e.proc.finished {
			k.events++
			k.dispatch(e.proc)
			return true
		}
	}
	return false
}

// Counts reports how many events the kernel executed from its queue and how
// many wake-ups it ran ahead to instead of queueing.
func (k *Kernel) Counts() (events, ranAhead uint64) { return k.events, k.ranAhead }

// Run executes events until the queue drains or the limit is hit, letting
// processes run ahead up to the limit. It returns the final virtual time.
func (k *Kernel) Run() Time {
	k.horizon, k.publish = k.limit, nil
	for k.step(MaxTime) {
	}
	return k.now
}

// PeekTime returns the timestamp of the earliest pending event, when one
// exists. Head times are nondecreasing, so the returned time is a lower
// bound on every event this kernel will still execute — stale wake-ups for
// finished processes sit in the queue until popped, which can only make
// the bound conservative (too low), never optimistic.
func (k *Kernel) PeekTime() (Time, bool) {
	if len(k.queue) == 0 {
		return 0, false
	}
	return k.queue[0].at, true
}

// RunGated executes events like Run, but announces the head-event time via
// publish *before* each event executes and consults keepGoing after each
// one. It is the conservative parallel-simulation entry point: publish(t)
// promises the caller's synchronization layer that this kernel will never
// again execute an event earlier than t, so peer kernels may safely run up
// to t. Processes run ahead up to the limit, and each run-ahead time is
// published before the clock moves to it, so a peer never waits on a stale
// bound; keepGoing is consulted only between queued events. Either hook
// may be nil. Returns the final virtual time; a limit stop is reported
// through Ended, exactly as with Run.
func (k *Kernel) RunGated(publish func(Time), keepGoing func() bool) Time {
	k.horizon, k.publish = k.limit, publish
	for len(k.queue) > 0 {
		if publish != nil {
			publish(k.queue[0].at)
		}
		if !k.step(MaxTime) {
			break
		}
		if keepGoing != nil && !keepGoing() {
			break
		}
	}
	return k.now
}

// RunUntil executes events until virtual time t (inclusive of events at t)
// and advances the clock to t even when the queue drains early; processes
// run ahead no further than t, and a stale wake-up at or before t never
// lets a later event through. The hard limit wins: past it the clock
// clamps to the limit and Ended reports true, exactly as Run behaves.
func (k *Kernel) RunUntil(t Time) Time {
	k.horizon, k.publish = t, nil
	for k.step(t) {
	}
	if t > k.limit {
		t = k.limit
		k.ended = true
	}
	if k.now < t {
		k.now = t
	}
	return k.now
}

// Ended reports whether the simulation stopped because of the time limit.
func (k *Kernel) Ended() bool { return k.ended }

// Pending returns the number of queued events (for tests/diagnostics).
func (k *Kernel) Pending() int { return len(k.queue) }

// Procs returns the names of all live (unfinished) processes, sorted, for
// diagnostics.
func (k *Kernel) Procs() []string {
	var names []string
	for _, p := range k.procs {
		if p != nil {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}

// KillAll cancels every live process, in PID order. Each parked process is
// woken once to unwind via panic(errProcKilled); processes must not
// recover() that value. A process that was never dispatched finishes
// without entering its body.
func (k *Kernel) KillAll() {
	for _, p := range k.procs {
		if p != nil {
			p.Kill()
		}
	}
	// Drain the unwind dispatches so coroutines exit before we return. The
	// kernel maintains a live counter decremented as each process finishes,
	// so the drain is linear in the number of events rather than rescanning
	// every process after every Step. Nothing runs ahead during the drain.
	k.horizon, k.publish = noHorizon, nil
	for k.live > 0 && k.step(MaxTime) {
	}
}
