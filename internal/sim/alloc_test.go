package sim

import "testing"

// The kernel hot paths carry an explicit allocation budget (DESIGN.md §9):
// once the event heap and waiter queues have grown to their steady-state
// capacity, scheduling points must not allocate. These tests pin that
// budget with testing.AllocsPerRun so a regression (a pointer-based event,
// an interface boxing, a queue reslice that leaks capacity) fails loudly.

// TestProcSleepZeroAlloc pins 0 allocs/op for the Proc.Sleep steady state
// under Step, which never runs ahead: schedule + dispatch + park, the
// scheduling point a process pays whenever its wake-up is not the next
// event.
func TestProcSleepZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
		}
	})
	// Warm up: first dispatches grow the event heap to capacity.
	for i := 0; i < 64; i++ {
		k.Step()
	}
	allocs := testing.AllocsPerRun(200, func() {
		if !k.Step() {
			t.Fatal("queue drained")
		}
	})
	if allocs != 0 {
		t.Errorf("Proc.Sleep steady state = %v allocs/op, want 0", allocs)
	}
	k.KillAll()
}

// TestRunAheadZeroAlloc pins 0 allocs/op for the run-ahead path under Run:
// a lone sleeper woken through a Cond sleeps 64 times per Run, each wake-up
// the next event, so the clock moves in place with no queue traffic.
func TestRunAheadZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k)
	k.Spawn("sleeper", func(p *Proc) {
		for {
			c.Wait(p)
			for i := 0; i < 64; i++ {
				p.Sleep(Microsecond)
			}
		}
	})
	k.Run() // parks the sleeper on c
	allocs := testing.AllocsPerRun(200, func() {
		c.Signal()
		k.Run()
	})
	if allocs != 0 {
		t.Errorf("run-ahead steady state = %v allocs/op, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call on top of its 200.
	if _, ahead := k.Counts(); ahead != 201*64 {
		t.Errorf("%d sleeps ran ahead, want every one of %d", ahead, 201*64)
	}
	k.KillAll()
}

// TestProcSleepInterleavedZeroAlloc pins 0 allocs/op for the switch path
// under a loop that may run ahead: two sleepers with equal quanta tie at
// every wake-up, so each Sleep falls back to schedule + switch + pop.
func TestProcSleepInterleavedZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 2; i++ {
		k.Spawn("sleeper", func(p *Proc) {
			for {
				p.Sleep(Microsecond)
			}
		})
	}
	k.RunUntil(Time(64 * Microsecond)) // grow the event heap to capacity
	allocs := testing.AllocsPerRun(200, func() {
		k.RunUntil(k.Now() + Time(Microsecond))
	})
	if allocs != 0 {
		t.Errorf("interleaved Proc.Sleep steady state = %v allocs/op, want 0", allocs)
	}
	if _, ahead := k.Counts(); ahead != 0 {
		t.Errorf("%d interleaved sleeps ran ahead, want 0", ahead)
	}
	k.KillAll()
}

// TestKernelTimerZeroAlloc pins 0 allocs/op for a self-rescheduling After
// callback: the event heap must hold events by value, so a timer firing and
// rescheduling costs no allocation once the closure exists.
func TestKernelTimerZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	var tick func(Time)
	tick = func(Time) { k.After(Microsecond, tick) }
	k.After(Microsecond, tick)
	for i := 0; i < 64; i++ {
		k.Step()
	}
	allocs := testing.AllocsPerRun(200, func() {
		if !k.Step() {
			t.Fatal("queue drained")
		}
	})
	if allocs != 0 {
		t.Errorf("timer steady state = %v allocs/op, want 0", allocs)
	}
}

// TestCondPingPongZeroAlloc pins 0 allocs/op for a steady Wait/Signal
// cycle: the waiter queue must compact in place rather than reslice from
// the front, or every Wait re-grows the backing array.
func TestCondPingPongZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	c1, c2 := NewCond(k), NewCond(k)
	k.Spawn("b", func(p *Proc) {
		for {
			c2.Wait(p)
			c1.Signal()
		}
	})
	k.Spawn("a", func(p *Proc) {
		for {
			c2.Signal()
			c1.Wait(p)
		}
	})
	for i := 0; i < 64; i++ {
		k.Step()
	}
	allocs := testing.AllocsPerRun(200, func() {
		if !k.Step() {
			t.Fatal("queue drained")
		}
	})
	if allocs != 0 {
		t.Errorf("cond ping-pong steady state = %v allocs/op, want 0", allocs)
	}
	k.KillAll()
}
