// The goroutine driver: one sim.Kernel per node, each on its own
// goroutine, conservatively synchronized on the only cross-node coupling
// the runtime has — remote-tier page traffic over the in-process Loopback
// transport. Every cross-node operation still happens in the merged
// (virtual time, node index) order the stepping driver (run.go) executes
// events in, so the two drivers produce the same Result.
//
// Protocol. Every node publishes a conservative lower bound on its own
// clock — the timestamp of its next event, published *before* the event
// executes — through a nodeClock. A cross-node operation at local time t
// must wait until the clock of every node whose events could precede it in
// the merged order has passed t:
//
//   - node i's injections into its ring successor j=(i+1)%N (the Loopback
//     gate) wait until bound_j > t when j < i, else bound_j >= t;
//   - node j's own store operations (the Backend owner gate) wait until
//     bound_i > t for its ring predecessor i=(j-1+N)%N when i < j, else
//     bound_i >= t.
//
// The strictness rule is uniform: watching a lower-indexed node requires
// its bound to pass t strictly, because that node's time-t events come
// first in the merged order. Publish-before-execute makes the pair of
// gates mutually exclusive at equal timestamps (both sides inside the same
// store at times t_i, t_j would need t_i >= t_j and t_j >= t_i with one
// inequality strict — impossible) and deadlock-free (the blocked node with
// the globally minimal (bound, index) always passes its gates, because
// every bound it watches belongs to a node that is later in merged order).
// A node goroutine that exits — queue drained, limit hit, cancellation,
// even a panic — poisons its bound to MaxInt64 on the way out, so peers
// gated on it unblock promptly.
//
// Nodes without a wired remote tier (TmemEnabled false on either ring
// endpoint, or RemoteTmem off) share no mutable state at all and run
// completely free.
package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"smartmem/internal/sim"
	"smartmem/internal/tmem"
)

// clockSpin bounds the Gosched spin a gate performs before parking on the
// condition variable. Bounds are published at event granularity, so most
// waits resolve within a few scheduler yields; the bound keeps the spin
// harmless on a single-CPU box.
const clockSpin = 64

// nodeClock is one node's published conservative clock bound. The owning
// node's goroutine is the only publisher; any peer may wait.
type nodeClock struct {
	bound   atomic.Int64
	waiters atomic.Int32
	mu      sync.Mutex
	cond    *sync.Cond
}

func newNodeClock() *nodeClock {
	c := &nodeClock{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// publish raises the bound to t (monotonic; lower or equal values are
// ignored). The broadcast is taken only when a waiter is registered, so the
// uncontended per-event cost is one atomic store and one atomic load.
func (c *nodeClock) publish(t int64) {
	if t <= c.bound.Load() {
		return
	}
	c.bound.Store(t)
	// Store(bound) precedes Load(waiters); a waiter registers before
	// re-checking the bound. Under Go's sequentially consistent atomics one
	// of the two must observe the other, so no wakeup is ever lost.
	if c.waiters.Load() != 0 {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// wait blocks until the bound passes t: strictly greater when strict,
// greater-or-equal otherwise (strict = the watched node's same-time events
// precede the waiter's in merged order).
func (c *nodeClock) wait(t int64, strict bool) {
	ok := func() bool {
		b := c.bound.Load()
		if strict {
			return b > t
		}
		return b >= t
	}
	if ok() {
		return
	}
	for i := 0; i < clockSpin; i++ {
		runtime.Gosched()
		if ok() {
			return
		}
	}
	c.mu.Lock()
	c.waiters.Add(1)
	for !ok() {
		c.cond.Wait()
	}
	c.waiters.Add(-1)
	c.mu.Unlock()
}

// lockedObserver serializes the shared external observer: node goroutines
// emit concurrently, and observers are written against the one-event-at-a-
// time contract. Cross-node event *order* seen by the observer is not
// deterministic — each node's own order and the merged Result are.
type lockedObserver struct {
	mu  sync.Mutex
	obs Observer
}

func (l *lockedObserver) OnEvent(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.obs.OnEvent(e)
}

// driveParallel runs each node's kernel on its own goroutine behind the
// nodeClock gates described above. Gates go in only after start: node
// assembly calls the gated owner surface (RegisterVM and friends) on the
// calling goroutine, before any bound has been published. loops[i] is node
// i's outbound Loopback, nil when unwired.
func driveParallel(ctx context.Context, kerns []*sim.Kernel, nodes []*nodeRuntime, loops []*tmem.Loopback, shards []*Result) {
	nn := len(kerns)
	clocks := make([]*nodeClock, nn)
	for i := range clocks {
		clocks[i] = newNodeClock()
	}
	for i, lb := range loops {
		if lb == nil {
			continue
		}
		j := (i + 1) % nn
		lb.SetGate(func() {
			clocks[j].wait(int64(kerns[i].Now()), j < i)
		})
		nodes[j].backend.SetGate(func() {
			clocks[i].wait(int64(kerns[j].Now()), i < j)
		})
	}

	var wg sync.WaitGroup
	for i, kern := range kerns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Poison the bound on any exit so gated peers never wait on a
			// finished (or crashed) node.
			defer clocks[i].publish(math.MaxInt64)
			// The kernel publishes its next-event time before executing
			// each event; the context is polled between events exactly
			// like the stepping driver.
			kern.RunGated(
				func(t sim.Time) { clocks[i].publish(int64(t)) },
				func() bool {
					if ctx.Err() != nil {
						shards[i].Cancelled = true
						return false
					}
					return true
				},
			)
		}()
	}
	wg.Wait()

	for i, lb := range loops {
		if lb == nil {
			continue
		}
		lb.SetGate(nil)
		nodes[(i+1)%nn].backend.SetGate(nil)
	}
}
