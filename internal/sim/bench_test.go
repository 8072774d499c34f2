package sim

import "testing"

// BenchmarkKernelPingPong measures the kernel loop itself: two callbacks
// rescheduling each other through After, no process context involved. This
// is the pure event-queue round trip — schedule, pop, fire — and the path
// the value-based heap and the fn fast path are built for.
func BenchmarkKernelPingPong(b *testing.B) {
	k := NewKernel(1)
	n := 0
	var ping, pong func(Time)
	ping = func(Time) {
		n++
		if n < b.N {
			k.After(Microsecond, pong)
		}
	}
	pong = func(Time) {
		n++
		if n < b.N {
			k.After(Microsecond, ping)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(Microsecond, ping)
	k.Run()
}

// BenchmarkKernelTimers measures a deep timer wheel: 64 outstanding timers,
// each rescheduling itself, so every firing exercises a full sift through a
// populated heap.
func BenchmarkKernelTimers(b *testing.B) {
	k := NewKernel(1)
	const width = 64
	n := 0
	var tick func(Time)
	tick = func(Time) {
		n++
		if n < b.N {
			k.After(Duration(1+n%13)*Microsecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < width; i++ {
		k.After(Duration(i)*Microsecond, tick)
	}
	k.Run()
}

// BenchmarkProcSleep measures a lone sleeper under Run: every wake-up is
// the next event, so each Sleep takes the run-ahead path — the clock moves
// in place, no heap push/pop, no coroutine switch.
func BenchmarkProcSleep(b *testing.B) {
	k := NewKernel(1)
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcSleepInterleaved measures the full process scheduling point:
// two processes with equal quanta, so every wake-up of one ties with the
// other's queued one and every Sleep is a real schedule, switch pair and
// pop. One op is one Sleep.
func BenchmarkProcSleepInterleaved(b *testing.B) {
	k := NewKernel(1)
	for _, n := range []int{b.N / 2, b.N - b.N/2} {
		k.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkCondPingPong measures two processes alternating through a pair
// of condition variables — the handoff pattern resource queues produce.
func BenchmarkCondPingPong(b *testing.B) {
	k := NewKernel(1)
	c1, c2 := NewCond(k), NewCond(k)
	// b is spawned first so it is dispatched first and is already parked in
	// Wait when a's first Signal fires.
	k.Spawn("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c2.Wait(p)
			c1.Signal()
		}
	})
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c2.Signal()
			c1.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
