package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smartmem/internal/kvstore"
	"smartmem/internal/tmem"
)

// The load generator speaks the kvstore wire protocol directly (it needs
// pipelining and per-response checks the stock Client does not offer) and
// checks every response against a model of what the server acknowledged.
//
// Keys are partitioned over the connections (key id mod conns), so each
// connection sees its own keys' operations in the order it issued them and
// its reader can hold that partition's model without locks.

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opFlush
)

// op is one request frame: n pages starting at slot (n > 1 is a batch
// frame). Open-loop ops carry their intended send time.
type op struct {
	at   int64 // intended send offset from the phase start, ns
	kind opKind
	conn uint8
	n    uint16
	slot uint32 // first page's slot in the connection's partition
	seq  uint32 // put sequence: together with the key it determines the body
}

// trafficMix describes a serve workload's request stream.
type trafficMix struct {
	conns           int
	slots           int // keys per connection
	batch           int // pages per put/get frame; flushes are single pages
	get, put, flush int // weights
	zipfS           float64
}

// Model states of one key, as the owning connection's reader knows them.
const (
	stateAbsent  uint32 = 0 // flushed or never put: a get must miss
	stateUnknown uint32 = 1 // last put was refused: either outcome is legal
	stateBase    uint32 = 2 // stateBase+seq: holds the body of put seq
)

// clientConn is one benchmark connection: socket, buffers, and the model of
// its key partition.
type clientConn struct {
	idx   int
	conns int
	nc    net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	pool  tmem.PoolID
	frame []byte
	page  []byte

	state   []uint32
	nextSeq uint32
	nocheck bool // answers are not checked (null-store leg)

	frames, pages, failed int64
	rejects, putPages     int64 // refused puts (E_TMEM) / pages offered by puts
	getPages, getHits     int64
	err                   error // first transport or protocol error
}

func dialConn(addr string, idx int, mix trafficMix, pool tmem.PoolID) (*clientConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &clientConn{
		idx: idx, conns: mix.conns, nc: nc, pool: pool,
		br:      bufio.NewReaderSize(nc, 64<<10),
		bw:      bufio.NewWriterSize(nc, 64<<10),
		page:    make([]byte, pageSize),
		state:   make([]uint32, mix.slots),
		nextSeq: 1, // 0 is the prefill
	}, nil
}

func (c *clientConn) keyID(slot uint32) uint32 { return slot*uint32(c.conns) + uint32(c.idx) }

func (c *clientConn) key(slot uint32) tmem.Key {
	id := c.keyID(slot)
	return tmem.Key{Pool: c.pool, Object: tmem.ObjectID(id >> 6), Index: tmem.PageIndex(id & 63)}
}

func (c *clientConn) slotAt(o op, i int) uint32 { return (o.slot + uint32(i)) % uint32(len(c.state)) }

const reqHeader = 1 + 16 + 4

// encode builds o's request frame into c.frame.
func (c *clientConn) encode(o op, bodies *pageBodies) []byte {
	f := c.frame[:0]
	if o.n == 1 {
		wire := [...]byte{opGet: kvstore.OpGet, opPut: kvstore.OpPut, opFlush: kvstore.OpFlushPage}[o.kind]
		f = append(f, wire)
		f = c.key(o.slot).AppendWire(f)
		if o.kind == opPut {
			f = binary.BigEndian.AppendUint32(f, pageSize)
			f = bodies.Append(f, c.keyID(o.slot), o.seq)
		} else {
			f = binary.BigEndian.AppendUint32(f, 0)
		}
		c.frame = f
		return f
	}
	wire := kvstore.OpGetBatch
	if o.kind == opPut {
		wire = kvstore.OpPutBatch
	}
	f = append(f, wire)
	f = append(f, make([]byte, 16)...) // header key unused by batch frames
	f = append(f, 0, 0, 0, 0)          // payload length, patched below
	f = binary.BigEndian.AppendUint32(f, uint32(o.n))
	for i := 0; i < int(o.n); i++ {
		slot := c.slotAt(o, i)
		f = c.key(slot).AppendWire(f)
		if o.kind == opPut {
			f = binary.BigEndian.AppendUint32(f, pageSize)
			f = bodies.Append(f, c.keyID(slot), o.seq)
		}
	}
	binary.BigEndian.PutUint32(f[17:], uint32(len(f)-reqHeader))
	c.frame = f
	return f
}

var errProtocol = errors.New("benchmark: malformed response")

// check applies one page's outcome to the model and reports whether it was
// legal. page is the returned body for a get hit.
func (c *clientConn) check(kind opKind, slot, seq uint32, st tmem.Status, page []byte, bodies *pageBodies) bool {
	if c.nocheck {
		return true
	}
	switch kind {
	case opPut:
		c.putPages++
		switch st {
		case tmem.STmem:
			c.state[slot] = stateBase + seq
		case tmem.ETmem:
			c.rejects++
			c.state[slot] = stateUnknown
		default:
			return false
		}
	case opFlush:
		c.state[slot] = stateAbsent
	case opGet:
		c.getPages++
		if st == tmem.STmem {
			c.getHits++
		}
		switch s := c.state[slot]; s {
		case stateUnknown:
		case stateAbsent:
			return st != tmem.STmem
		default:
			return st == tmem.STmem && bodies.Matches(page, c.keyID(slot), s-stateBase)
		}
	}
	return true
}

// readResponse reads and checks the response to o. A transport or framing
// error is returned; a wrong answer only counts in c.failed.
func (c *clientConn) readResponse(o op, bodies *pageBodies) error {
	var hdr [5]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return err
	}
	st := tmem.Status(int8(hdr[0]))
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	c.frames++
	c.pages += int64(o.n)
	ok := true
	switch {
	case o.n == 1:
		if n > pageSize {
			return errProtocol
		}
		if _, err := io.ReadFull(c.br, c.page[:n]); err != nil {
			return err
		}
		ok = c.check(o.kind, o.slot, o.seq, st, c.page[:n], bodies)
	case o.kind == opPut:
		if st != tmem.STmem || n != int(o.n) {
			return errProtocol
		}
		for i := 0; i < n; i++ {
			b, err := c.br.ReadByte()
			if err != nil {
				return err
			}
			ok = c.check(opPut, c.slotAt(o, i), o.seq, tmem.Status(int8(b)), nil, bodies) && ok
		}
	default: // get batch
		if st != tmem.STmem {
			return errProtocol
		}
		for i := 0; i < int(o.n); i++ {
			var item [5]byte
			if _, err := io.ReadFull(c.br, item[:]); err != nil {
				return err
			}
			dlen := int(binary.BigEndian.Uint32(item[1:]))
			if dlen > pageSize {
				return errProtocol
			}
			if _, err := io.ReadFull(c.br, c.page[:dlen]); err != nil {
				return err
			}
			ok = c.check(opGet, c.slotAt(o, i), 0, tmem.Status(int8(item[0])), c.page[:dlen], bodies) && ok
		}
	}
	if !ok {
		c.failed++
	}
	return nil
}

// roundTrip sends one op and waits for its answer (prefill, depth-1 probe).
func (c *clientConn) roundTrip(o op, bodies *pageBodies) error {
	if _, err := c.bw.Write(c.encode(o, bodies)); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	return c.readResponse(o, bodies)
}

// prefill puts every key of the partition once (sequence 0), in frames of
// up to kvstore.MaxBatch pages.
func (c *clientConn) prefill(bodies *pageBodies) error {
	for slot := 0; slot < len(c.state); slot += kvstore.MaxBatch {
		n := min(kvstore.MaxBatch, len(c.state)-slot)
		if err := c.roundTrip(op{kind: opPut, n: uint16(n), slot: uint32(slot)}, bodies); err != nil {
			return err
		}
	}
	return nil
}

// opSource draws a connection's ops from its own seeded stream.
type opSource struct {
	mix  trafficMix
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newOpSource(mix trafficMix, seed uint64, conn int) *opSource {
	rng := rand.New(rand.NewPCG(seed, 0x6f7073<<8|uint64(conn)))
	s := &opSource{mix: mix, rng: rng}
	if mix.zipfS > 1 {
		s.zipf = rand.NewZipf(rng, mix.zipfS, 1, uint64(mix.slots-1))
	}
	return s
}

// next draws kind and slot; the caller fills conn, seq and time.
func (s *opSource) next() op {
	o := op{n: 1}
	switch r := s.rng.IntN(s.mix.get + s.mix.put + s.mix.flush); {
	case r < s.mix.get:
		o.kind = opGet
	case r < s.mix.get+s.mix.put:
		o.kind = opPut
	default:
		o.kind = opFlush
	}
	if o.kind != opFlush {
		o.n = uint16(s.mix.batch)
	}
	if s.zipf != nil {
		o.slot = uint32(s.zipf.Uint64())
	} else {
		o.slot = uint32(s.rng.IntN(s.mix.slots))
	}
	return o
}

// buildSchedule fixes an open-loop phase up front: Poisson arrivals at rate
// frames/s over span, every op's connection, kind, key and put sequence
// drawn from the seed. conns' nextSeq advance past the sequences used.
func buildSchedule(mix trafficMix, seed uint64, rate float64, span time.Duration, conns []*clientConn) []op {
	arrivals := rand.New(rand.NewPCG(seed, 0x6172726976616c))
	sources := make([]*opSource, mix.conns)
	for i := range sources {
		sources[i] = newOpSource(mix, seed, i)
	}
	sched := make([]op, 0, int(rate*span.Seconds()*1.05)+16)
	mean := float64(time.Second) / rate
	for at := arrivals.ExpFloat64() * mean; at < float64(span); at += arrivals.ExpFloat64() * mean {
		ci := arrivals.IntN(mix.conns)
		o := sources[ci].next()
		o.at, o.conn = int64(at), uint8(ci)
		if o.kind == opPut {
			o.seq = conns[ci].nextSeq
			conns[ci].nextSeq++
		}
		sched = append(sched, o)
	}
	return sched
}

// openLoopResult is what one open-loop phase measured.
type openLoopResult struct {
	windows  *latencyWindows
	lateness []int64       // send time minus intended time, ns, per op, sorted
	elapsed  time.Duration // first intended send to last answer
	// serverBusy is the share of the phase the server's CPU was not idle
	// (server, readers and the kernel's work for them); 0 where unknown.
	serverBusy float64
}

const (
	// The pacer sleeps only while the next op is further away than this and
	// spins the rest: a Go timer on an idle P fires up to a millisecond
	// late (the netpoller waits in whole milliseconds), and that slop must
	// not become lateness. At the workloads' rates the gaps are far shorter,
	// so the pacer spins throughout and keeps one of the two cores busy.
	pacerSleep = 3 * time.Millisecond
	// drainTimeout bounds the wait for answers after the last send; an op
	// still unanswered then has failed. It is long because a failed
	// operation is a verdict on the program, and the host's disk can stop
	// for seconds (a concurrent writer held serve-put-tiers' frames for
	// 7.4 s): that must show as latency, not as failure.
	drainTimeout = 30 * time.Second
)

// runOpenLoop plays sched against the server. One pacer goroutine owns
// every connection's send side and sends each op at its intended time, or
// as soon after as it can (after a stall it catches up without waiting);
// one reader per connection times each answer from the op's intended time.
func runOpenLoop(conns []*clientConn, sched []op, span, window time.Duration, bodies *pageBodies) openLoopResult {
	perConn := make([][]int32, len(conns))
	for i, o := range sched {
		perConn[o.conn] = append(perConn[o.conn], int32(i))
	}
	sentAt := make([]atomic.Int64, len(sched))
	t0 := time.Now()
	deadline := t0.Add(span + drainTimeout)
	for _, c := range conns {
		c.nc.SetDeadline(deadline)
	}

	wins := make([]*latencyWindows, len(conns))
	var wg sync.WaitGroup
	for ci, c := range conns {
		wins[ci] = newLatencyWindows(int64(window), int64(span))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n, i := range perConn[ci] {
				o := sched[i]
				if err := c.readResponse(o, bodies); err != nil {
					c.fail(err, len(perConn[ci])-n)
					return
				}
				wins[ci].Add(o.at, int64(time.Since(t0))-o.at)
			}
		}()
	}

	serverCPU, restore := splitCPUs()
	defer restore()
	busy0, total0 := cpuTicks(serverCPU)
	dirty := make([]bool, len(conns))
	flush := func() {
		for ci, d := range dirty {
			if d {
				dirty[ci] = false
				if err := conns[ci].bw.Flush(); err != nil {
					conns[ci].nc.Close() // unblocks the reader, which records the failure
				}
			}
		}
	}
	for i := range sched {
		o := &sched[i]
		for {
			now := int64(time.Since(t0))
			if now >= o.at {
				break
			}
			flush()
			if wait := time.Duration(o.at - now); wait > pacerSleep {
				time.Sleep(wait - pacerSleep)
			}
			// Otherwise spin on the clock, offering the CPU to the kernel's
			// other threads on every turn (see yieldCPU). A Go-level yield
			// would instead park the pacer behind whatever goroutine the
			// scheduler picks and turn that goroutine's run into lateness.
			yieldCPU()
		}
		c := conns[o.conn]
		sentAt[i].Store(int64(time.Since(t0)))
		if _, err := c.bw.Write(c.encode(*o, bodies)); err != nil {
			c.nc.Close()
		}
		dirty[o.conn] = true
	}
	flush()
	wg.Wait()
	elapsed := time.Since(t0)
	busy1, total1 := cpuTicks(serverCPU)
	for _, c := range conns {
		c.nc.SetDeadline(time.Time{})
	}

	res := openLoopResult{windows: newLatencyWindows(int64(window), int64(span)), elapsed: elapsed, serverBusy: ratio(busy1-busy0, total1-total0)}
	for _, w := range wins {
		res.windows.Merge(w)
	}
	res.lateness = make([]int64, len(sched))
	for i := range sched {
		res.lateness[i] = sentAt[i].Load() - sched[i].at
	}
	sort.Slice(res.lateness, func(i, j int) bool { return res.lateness[i] < res.lateness[j] })
	return res
}

// fail records a dead connection: the op being read and every op after it
// on this connection count as failed.
func (c *clientConn) fail(err error, remaining int) {
	if c.err == nil {
		c.err = err
	}
	c.failed += int64(remaining)
	c.frames += int64(remaining)
}

// closedWindow is the length of the windows a closed-loop phase's
// completions are counted in.
const closedWindow = 100 * time.Millisecond

// runClosedLoop keeps depth requests outstanding on every connection for
// span and returns completed pages per second: the upper quartile over
// 100 ms windows of each window's rate. Host interference only ever takes
// throughput away, for a window or for seconds; the upper quartile reads
// the undisturbed rate as long as a quarter of the windows were quiet, and
// stays below the bursts that follow a stall. A span shorter than two
// windows reports the plain mean.
func runClosedLoop(conns []*clientConn, mix trafficMix, seed uint64, depth int, span time.Duration, bodies *pageBodies) float64 {
	nWin := int(span / closedWindow)
	done := make([][]int64, len(conns)) // pages completed, per connection and window
	for i := range done {
		done[i] = make([]int64, nWin)
	}
	t0 := time.Now()
	stop := t0.Add(span)
	var before int64
	for _, c := range conns {
		before += c.pages
		c.nc.SetDeadline(stop.Add(drainTimeout))
	}
	var wg sync.WaitGroup
	for ci, c := range conns {
		src := newOpSource(mix, seed, ci)
		inflight := make(chan op, depth-1) // the reader holds one more
		wg.Add(2)
		go func() {
			defer wg.Done()
			for o := range inflight {
				if err := c.readResponse(o, bodies); err != nil {
					c.fail(err, 1+len(inflight))
					c.nc.Close()
					for range inflight { // let the writer finish
					}
					return
				}
				if w := int(time.Since(t0) / closedWindow); w < nWin {
					done[ci][w] += int64(o.n)
				}
			}
		}()
		go func() {
			defer wg.Done()
			defer close(inflight)
			for time.Now().Before(stop) {
				o := src.next()
				if o.kind == opPut {
					o.seq = c.nextSeq
					c.nextSeq++
				}
				select {
				case inflight <- o:
				default:
					// About to wait for a slot: everything buffered must be
					// on the wire first, or the answers never come.
					if c.bw.Flush() != nil {
						return
					}
					inflight <- o
				}
				if _, err := c.bw.Write(c.encode(o, bodies)); err != nil {
					return
				}
			}
			c.bw.Flush()
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	var after int64
	for _, c := range conns {
		after += c.pages
		c.nc.SetDeadline(time.Time{})
	}
	if nWin < 2 {
		return float64(after-before) / elapsed.Seconds()
	}
	rates := make([]float64, nWin)
	for _, d := range done {
		for w, n := range d {
			rates[w] += float64(n) / closedWindow.Seconds()
		}
	}
	return quantile(sortedCopy(rates), 0.75)
}

// newPool creates the shared persistent pool every connection works in.
func newPool(addr string) (tmem.PoolID, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return tmem.InvalidPool, err
	}
	cl := kvstore.NewClient(nc, pageSize)
	defer cl.Close()
	pool, err := cl.NewPool(1, tmem.Persistent)
	if err != nil {
		return tmem.InvalidPool, fmt.Errorf("benchmark: new pool: %w", err)
	}
	return pool, nil
}
