package sim

import "fmt"

// errProcKilled is the sentinel panic value used to unwind a killed
// process's coroutine. Process bodies must not recover it.
var errProcKilled = fmt.Errorf("sim: process killed")

// Proc is a simulated process: a coroutine that runs in strict alternation
// with the kernel. All Proc methods must be called from the process's own
// body function, except Kill and Finished which may be called from the
// kernel context (events/callbacks).
type Proc struct {
	k         *Kernel
	id        int
	name      string
	next      func() (struct{}, bool) // kernel side: resume until the next park
	yield     func(struct{}) bool     // process side: switch back to the kernel
	finished  bool
	cancelled bool

	// cond this proc is currently waiting on, if any (for Kill bookkeeping).
	waiting *Cond
}

// ID returns the process identifier (unique within a kernel, starts at 1).
func (p *Proc) ID() int { return p.id }

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Finished reports whether the process body has returned.
func (p *Proc) Finished() bool { return p.finished }

// run is the coroutine entry: it executes body on the first dispatch and
// marks the process finished when body returns or unwinds. A process killed
// before that first dispatch never enters body.
func (p *Proc) run(body func(*Proc)) {
	defer func() {
		if r := recover(); r != nil && r != errProcKilled {
			p.k.panicVal = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
		}
		p.finished = true
	}()
	if !p.cancelled {
		body(p)
	}
}

// park switches back to the kernel and returns when re-dispatched. Panics
// with errProcKilled if the process was cancelled meanwhile.
func (p *Proc) park() {
	p.yield(struct{}{})
	if p.cancelled {
		panic(errProcKilled)
	}
}

// Sleep advances this process's local view of time by d, yielding to the
// kernel so other processes and timers can run in between. d <= 0 yields
// without advancing the clock (still a scheduling point). When the wake-up
// would be the next event anyway — nothing queued at or before it, within
// the limit and the driving loop's horizon — the process runs ahead: the
// clock moves in place and Sleep returns without switching.
func (p *Proc) Sleep(d Duration) {
	if p.cancelled {
		panic(errProcKilled)
	}
	if d < 0 {
		d = 0
	}
	t := p.k.now + Time(d)
	if p.k.runAhead(t) {
		return
	}
	p.k.scheduleProc(t, p)
	p.park()
}

// Kill cancels the process. If it is parked it unwinds on next dispatch;
// a running process cannot Kill itself (use return instead).
func (p *Proc) Kill() {
	if p.finished || p.cancelled {
		return
	}
	p.cancelled = true
	if p.waiting != nil {
		p.waiting.remove(p)
		p.waiting = nil
	}
	// Schedule an immediate wake; the next Step dispatches the coroutine,
	// which observes cancellation in park() (or at entry) and unwinds.
	p.k.scheduleProc(p.k.now, p)
}

// Cond is a simple FIFO condition variable for processes. Waiters park
// until another process or a kernel callback calls Signal or Broadcast.
type Cond struct {
	k       *Kernel
	waiters []*Proc
}

// NewCond creates a condition variable bound to kernel k.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait parks the calling process until signalled.
func (c *Cond) Wait(p *Proc) {
	if p.cancelled {
		panic(errProcKilled)
	}
	c.waiters = append(c.waiters, p)
	p.waiting = c
	p.park()
	p.waiting = nil
}

// Signal wakes the longest-waiting process, if any. Safe to call from
// kernel callbacks or other processes. The waiter queue is compacted in
// place (never resliced from the front), so a steady Wait/Signal cycle
// reuses one backing array and allocates nothing.
func (c *Cond) Signal() {
	for len(c.waiters) > 0 {
		p := c.waiters[0]
		c.popFront()
		if p.finished || p.cancelled {
			continue
		}
		p.waiting = nil
		c.k.scheduleProc(c.k.now, p)
		return
	}
}

// Broadcast wakes all waiting processes in FIFO order.
func (c *Cond) Broadcast() {
	// Exactly one process runs at a time in the simulation, and woken
	// processes only resume at a later dispatch, so nothing can append to
	// the queue while this loop drains it — truncating up front keeps the
	// backing array for reuse.
	ws := c.waiters
	c.waiters = c.waiters[:0]
	for i, p := range ws {
		ws[i] = nil
		if p.finished || p.cancelled {
			continue
		}
		p.waiting = nil
		c.k.scheduleProc(c.k.now, p)
	}
}

// Waiters returns the number of parked processes.
func (c *Cond) Waiters() int { return len(c.waiters) }

// popFront removes the head waiter, shifting the queue down in place.
func (c *Cond) popFront() {
	n := len(c.waiters)
	copy(c.waiters, c.waiters[1:])
	c.waiters[n-1] = nil
	c.waiters = c.waiters[:n-1]
}

func (c *Cond) remove(p *Proc) {
	for i, w := range c.waiters {
		if w == p {
			n := len(c.waiters)
			copy(c.waiters[i:], c.waiters[i+1:])
			c.waiters[n-1] = nil
			c.waiters = c.waiters[:n-1]
			return
		}
	}
}
