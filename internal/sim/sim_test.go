package sim

import (
	"testing"
	"testing/quick"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel(1)
	if k.Now() != 0 {
		t.Fatalf("new kernel time = %v, want 0", k.Now())
	}
	if k.Pending() != 0 {
		t.Fatalf("new kernel pending = %d, want 0", k.Pending())
	}
}

func TestAfterFiresInOrder(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.After(30*Millisecond, func(Time) { got = append(got, 3) })
	k.After(10*Millisecond, func(Time) { got = append(got, 1) })
	k.After(20*Millisecond, func(Time) { got = append(got, 2) })
	end := k.Run()
	if end != Time(30*Millisecond) {
		t.Errorf("end time = %v, want 30ms", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(Millisecond, func(Time) { got = append(got, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time order = %v, want ascending", got)
		}
	}
}

func TestAtClampsToNow(t *testing.T) {
	k := NewKernel(1)
	fired := Time(-1)
	k.After(5*Millisecond, func(Time) {
		k.At(Time(Millisecond), func(ft Time) { fired = ft }) // in the past
	})
	k.Run()
	if fired != Time(5*Millisecond) {
		t.Errorf("past At fired at %v, want clamped to 5ms", fired)
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	var marks []Time
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Second)
			marks = append(marks, p.Now())
		}
	})
	k.Run()
	for i, m := range marks {
		want := Time((i + 1)) * Time(Second)
		if m != want {
			t.Errorf("mark[%d] = %v, want %v", i, m, want)
		}
	}
	if len(marks) != 3 {
		t.Fatalf("got %d marks, want 3", len(marks))
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		p.Sleep(10 * Millisecond)
		order = append(order, "a10")
		p.Sleep(20 * Millisecond) // wakes at 30
		order = append(order, "a30")
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(20 * Millisecond)
		order = append(order, "b20")
	})
	k.Run()
	want := []string{"a10", "b20", "a30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpawnAtDelaysStart(t *testing.T) {
	k := NewKernel(1)
	var started Time
	k.SpawnAt("late", 30*Second, func(p *Proc) { started = p.Now() })
	k.Run()
	if started != Time(30*Second) {
		t.Errorf("started at %v, want 30s", started)
	}
}

func TestSetLimitStopsRun(t *testing.T) {
	k := NewKernel(1)
	ticks := 0
	k.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(Second)
			ticks++
		}
	})
	k.SetLimit(Time(5 * Second))
	end := k.Run()
	if !k.Ended() {
		t.Error("Ended() = false, want true after limit")
	}
	if end != Time(5*Second) {
		t.Errorf("end = %v, want 5s", end)
	}
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5", ticks)
	}
	k.KillAll()
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	count := 0
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(Second)
			count++
		}
	})
	k.RunUntil(Time(3 * Second))
	if count != 3 {
		t.Errorf("count after RunUntil(3s) = %d, want 3", count)
	}
	if k.Now() != Time(3*Second) {
		t.Errorf("now = %v, want 3s", k.Now())
	}
	k.KillAll()
}

func TestPeekTime(t *testing.T) {
	k := NewKernel(1)
	if _, ok := k.PeekTime(); ok {
		t.Fatal("empty kernel reported a head event")
	}
	k.SpawnAt("late", 5*Millisecond, func(p *Proc) {})
	k.SpawnAt("early", 2*Millisecond, func(p *Proc) {})
	if head, ok := k.PeekTime(); !ok || head != Time(2*Millisecond) {
		t.Fatalf("head = %v/%v, want 2ms", head, ok)
	}
}

func TestKillUnwindsProcess(t *testing.T) {
	k := NewKernel(1)
	cleaned := false
	p := k.Spawn("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(Duration(1 << 40)) // effectively forever
	})
	k.After(Millisecond, func(Time) { p.Kill() })
	k.Run()
	if !p.Finished() {
		t.Error("killed process not finished")
	}
	if !cleaned {
		t.Error("killed process defers did not run")
	}
}

func TestKillAllDrains(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 5; i++ {
		k.Spawn("p", func(p *Proc) {
			for {
				p.Sleep(Second)
			}
		})
	}
	k.RunUntil(Time(2 * Second))
	k.KillAll()
	if n := len(k.Procs()); n != 0 {
		t.Errorf("live procs after KillAll = %d (%v), want 0", n, k.Procs())
	}
}

func TestCondSignalFIFO(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.SpawnAt("w", Duration(i)*Millisecond, func(p *Proc) {
			c.Wait(p)
			order = append(order, i)
		})
	}
	k.After(10*Millisecond, func(Time) {
		if c.Waiters() != 3 {
			t.Errorf("waiters = %d, want 3", c.Waiters())
		}
		c.Signal()
		c.Signal()
		c.Signal()
	})
	k.Run()
	for i := 0; i < 3; i++ {
		if order[i] != i {
			t.Fatalf("wake order = %v, want FIFO", order)
		}
	}
}

func TestCondBroadcast(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k)
	woke := 0
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(p *Proc) {
			c.Wait(p)
			woke++
		})
	}
	k.After(Millisecond, func(Time) { c.Broadcast() })
	k.Run()
	if woke != 4 {
		t.Errorf("woke = %d, want 4", woke)
	}
}

func TestProcIdentity(t *testing.T) {
	k := NewKernel(1)
	p := k.Spawn("worker", func(p *Proc) {})
	if p.Name() != "worker" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.ID() != 1 {
		t.Errorf("ID = %d, want 1", p.ID())
	}
	if p.Kernel() != k {
		t.Error("Kernel() mismatch")
	}
	k.Run()
	if !p.Finished() {
		t.Error("process not Finished after Run")
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("bad", func(p *Proc) {
		p.Sleep(Millisecond)
		panic("boom")
	})
	defer func() {
		if recover() == nil {
			t.Error("process panic did not propagate to Run")
		}
	}()
	k.Run()
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func() []Time {
		k := NewKernel(42)
		rng := k.RNG().Split()
		var marks []Time
		for i := 0; i < 4; i++ {
			k.Spawn("p", func(p *Proc) {
				for j := 0; j < 50; j++ {
					p.Sleep(Duration(rng.Intn(1000)+1) * Microsecond)
					marks = append(marks, p.Now())
				}
			})
		}
		k.Run()
		return marks
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if s := Time(1500 * Millisecond).Seconds(); s != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", s)
	}
	if s := (2500 * Millisecond).Seconds(); s != 2.5 {
		t.Errorf("Duration.Seconds = %v, want 2.5", s)
	}
	if Second.Std().String() != "1s" {
		t.Errorf("Std = %v", Second.Std())
	}
}

func TestServerFIFOQueueing(t *testing.T) {
	s := NewServer("disk")
	// First request at t=0: no wait.
	if d := s.Serve(0, 3*Millisecond); d != 3*Millisecond {
		t.Errorf("first sojourn = %v, want 3ms", d)
	}
	// Second request at t=1ms must queue 2ms then serve 3ms.
	if d := s.Serve(Time(Millisecond), 3*Millisecond); d != 5*Millisecond {
		t.Errorf("second sojourn = %v, want 5ms", d)
	}
	// Third request after the backlog clears: no wait.
	if d := s.Serve(Time(100*Millisecond), 3*Millisecond); d != 3*Millisecond {
		t.Errorf("third sojourn = %v, want 3ms", d)
	}
	if s.Ops() != 3 {
		t.Errorf("ops = %d, want 3", s.Ops())
	}
	if s.BusyTime() != 9*Millisecond {
		t.Errorf("busy = %v, want 9ms", s.BusyTime())
	}
	if s.WaitTime() != 2*Millisecond {
		t.Errorf("wait = %v, want 2ms", s.WaitTime())
	}
	if s.MaxWait() != 2*Millisecond {
		t.Errorf("maxWait = %v, want 2ms", s.MaxWait())
	}
}

func TestServerBacklogAndReset(t *testing.T) {
	s := NewServer("d")
	s.Serve(0, 10*Millisecond)
	if b := s.Backlog(Time(4 * Millisecond)); b != 6*Millisecond {
		t.Errorf("backlog = %v, want 6ms", b)
	}
	if b := s.Backlog(Time(20 * Millisecond)); b != 0 {
		t.Errorf("backlog after idle = %v, want 0", b)
	}
	s.Reset()
	if s.Ops() != 0 || s.Backlog(0) != 0 {
		t.Error("Reset did not clear state")
	}
}

// Property: a FIFO server never reorders and total busy time equals the sum
// of service times.
func TestServerConservationProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := NewRNG(seed)
		s := NewServer("p")
		now := Time(0)
		var sum Duration
		lastFinish := Time(0)
		for i := 0; i < int(n)+1; i++ {
			now += Time(rng.Intn(1000)) * Time(Microsecond)
			svc := Duration(rng.Intn(5000)) * Microsecond
			sum += svc
			d := s.Serve(now, svc)
			finish := now + Time(d)
			if finish < lastFinish { // FIFO: completions monotonic
				return false
			}
			lastFinish = finish
		}
		return s.BusyTime() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds agree %d/100 times", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(3)
	s1 := r.Split()
	s2 := r.Split()
	agree := 0
	for i := 0; i < 100; i++ {
		if s1.Uint64() == s2.Uint64() {
			agree++
		}
	}
	if agree > 2 {
		t.Errorf("split streams agree %d/100 times", agree)
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Int63n(1 << 40); v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(9)
	base := Duration(1000)
	for i := 0; i < 1000; i++ {
		j := r.Jitter(base, 0.2)
		if j < 800 || j > 1200 {
			t.Fatalf("jitter out of bounds: %v", j)
		}
	}
	if r.Jitter(base, 0) != base {
		t.Error("zero-frac jitter changed value")
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		p := r.Perm(50)
		seen := make([]bool, 50)
		for _, v := range p {
			if v < 0 || v >= 50 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

// --- Cond edge cases ---

// A process killed while parked in Wait must be removed from the waiter
// queue, and its pending signal consumption must not be lost: the next
// Signal wakes the next FIFO waiter.
func TestCondKillWhileWaitingRemovesWaiter(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k)
	var woke []string
	mk := func(name string) *Proc {
		return k.Spawn(name, func(p *Proc) {
			c.Wait(p)
			woke = append(woke, name)
		})
	}
	first := mk("first")
	mk("second")
	mk("third")
	k.After(Millisecond, func(Time) {
		if c.Waiters() != 3 {
			t.Errorf("waiters before kill = %d, want 3", c.Waiters())
		}
		first.Kill()
		if c.Waiters() != 2 {
			t.Errorf("waiters after kill = %d, want 2 (killed proc still queued)", c.Waiters())
		}
		c.Signal()
	})
	k.Run()
	if len(woke) != 1 || woke[0] != "second" {
		t.Errorf("woke = %v, want [second]: the signal must skip the killed head", woke)
	}
	if !first.Finished() {
		t.Error("killed waiter did not unwind")
	}
	k.KillAll()
}

// Broadcast over a queue containing a killed waiter wakes everyone else.
func TestCondBroadcastSkipsKilled(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k)
	woke := 0
	var victim *Proc
	for i := 0; i < 4; i++ {
		p := k.Spawn("w", func(p *Proc) {
			c.Wait(p)
			woke++
		})
		if i == 2 {
			victim = p
		}
	}
	k.After(Millisecond, func(Time) {
		victim.Kill()
		c.Broadcast()
	})
	k.Run()
	if woke != 3 {
		t.Errorf("woke = %d, want 3 (killed waiter skipped)", woke)
	}
}

// Signal consumed by a waiter that is killed after the signal was scheduled
// but before dispatch: the wake-up must not resurrect the process.
func TestCondSignalThenKillBeforeDispatch(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k)
	ran := false
	p := k.Spawn("w", func(p *Proc) {
		c.Wait(p)
		ran = true
	})
	k.After(Millisecond, func(Time) {
		c.Signal() // schedules p's wake at now
		p.Kill()   // cancels before the wake dispatches
	})
	k.Run()
	if ran {
		t.Error("killed process ran past Wait")
	}
	if !p.Finished() {
		t.Error("killed process did not unwind")
	}
}

// Wait on an already-cancelled process must unwind immediately and leave no
// waiter behind.
func TestCondWaitAfterKillUnwinds(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k)
	cleaned := false
	p := k.Spawn("w", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(2 * Millisecond) // killed during this sleep
		c.Wait(p)                // must panic(errProcKilled), not park
	})
	k.After(Millisecond, func(Time) { p.Kill() })
	k.Run()
	if !cleaned {
		t.Error("defer did not run on unwind")
	}
	if c.Waiters() != 0 {
		t.Errorf("waiters = %d, want 0", c.Waiters())
	}
}

// --- RunUntil boundary semantics ---

// An event scheduled exactly at t is executed by RunUntil(t), and one at
// t+1ns is not; the clock lands exactly on t either way.
func TestRunUntilInclusiveBoundary(t *testing.T) {
	k := NewKernel(1)
	var fired []string
	k.At(Time(Second), func(Time) { fired = append(fired, "at-t") })
	k.At(Time(Second)+1, func(Time) { fired = append(fired, "after-t") })
	k.RunUntil(Time(Second))
	if len(fired) != 1 || fired[0] != "at-t" {
		t.Errorf("fired = %v, want [at-t]", fired)
	}
	if k.Now() != Time(Second) {
		t.Errorf("now = %v, want 1s", k.Now())
	}
	// The t+1 event is still pending and fires on the next call.
	k.RunUntil(Time(2 * Second))
	if len(fired) != 2 || fired[1] != "after-t" {
		t.Errorf("fired = %v, want [at-t after-t]", fired)
	}
}

// RunUntil past the kernel limit stops at the limit and sets Ended, even
// when events remain beyond it.
func TestRunUntilRespectsLimit(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.At(Time(5*Second), func(Time) { fired = true })
	k.SetLimit(Time(2 * Second))
	k.RunUntil(Time(10 * Second))
	if fired {
		t.Error("event beyond the limit fired")
	}
	if !k.Ended() {
		t.Error("Ended() = false, want true")
	}
	if k.Now() != Time(2*Second) {
		t.Errorf("now = %v, want clamped to the 2s limit", k.Now())
	}
}

// A stale wake-up at or before t (left queued by a killed sleeper) must not
// let RunUntil(t) execute the next event when that one lies past t.
func TestRunUntilStaleHeadStopsAtT(t *testing.T) {
	k := NewKernel(1)
	victim := k.Spawn("victim", func(p *Proc) { p.Sleep(10 * Second) })
	var fired []Time
	k.At(Time(Second), func(Time) { victim.Kill() })
	k.At(Time(12*Second), func(ft Time) { fired = append(fired, ft) })
	k.RunUntil(Time(11 * Second))
	if len(fired) != 0 || k.Now() != Time(11*Second) {
		t.Errorf("RunUntil(11s) fired %v and left the clock at %v, want nothing and 11s", fired, k.Now())
	}
	k.RunUntil(Time(12 * Second))
	if len(fired) != 1 {
		t.Errorf("RunUntil(12s) fired %v, want the 12s event", fired)
	}
}

// RunUntil with an empty queue advances the clock to t without events.
func TestRunUntilAdvancesIdleClock(t *testing.T) {
	k := NewKernel(1)
	k.RunUntil(Time(3 * Second))
	if k.Now() != Time(3*Second) {
		t.Errorf("now = %v, want 3s", k.Now())
	}
}

// KillAll must drain efficiently and correctly even when live processes
// keep respawning sleeps, and must be a no-op on a kernel whose processes
// all finished naturally.
func TestKillAllAfterNaturalFinish(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 8; i++ {
		k.Spawn("short", func(p *Proc) { p.Sleep(Millisecond) })
	}
	k.Run()
	if n := len(k.Procs()); n != 0 {
		t.Fatalf("live procs after Run = %d, want 0", n)
	}
	k.KillAll() // must not hang or panic with the live counter at zero
	if n := len(k.Procs()); n != 0 {
		t.Errorf("live procs after KillAll = %d, want 0", n)
	}
}

// A process killed before its first dispatch must never enter its body:
// the run is over, and running workload code during teardown would emit
// events after the end of the simulation.
func TestKillBeforeFirstDispatchSkipsBody(t *testing.T) {
	k := NewKernel(1)
	ran := false
	p := k.SpawnAt("late", 10*Second, func(p *Proc) { ran = true })
	k.RunUntil(Time(1 * Second))
	k.KillAll()
	if ran {
		t.Error("body of a never-dispatched process ran during KillAll")
	}
	if !p.Finished() || len(k.Procs()) != 0 {
		t.Errorf("finished=%v live=%v, want the process retired", p.Finished(), k.Procs())
	}
}
