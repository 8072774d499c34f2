package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smartmem/internal/durable"
	"smartmem/internal/hdr"
	"smartmem/internal/kvstore"
	"smartmem/internal/mem"
	"smartmem/internal/tmem"
)

// Mix is the operation mix as integer weights (interpreted relatively, so
// 45/45/10 and 9/9/2 are the same mix).
type Mix struct {
	Put   int
	Get   int
	Flush int
}

func (m Mix) total() int { return m.Put + m.Get + m.Flush }

func (m Mix) String() string {
	return fmt.Sprintf("put=%d,get=%d,flush=%d", m.Put, m.Get, m.Flush)
}

// ParseMix decodes "put=45,get=45,flush=10" (any subset; missing ops get
// weight 0).
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("loadgen: bad mix element %q (want op=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return Mix{}, fmt.Errorf("loadgen: bad mix weight %q", part)
		}
		switch name {
		case "put":
			m.Put = w
		case "get":
			m.Get = w
		case "flush":
			m.Flush = w
		default:
			return Mix{}, fmt.Errorf("loadgen: unknown mix op %q (put, get, flush)", name)
		}
	}
	if m.total() <= 0 {
		return Mix{}, fmt.Errorf("loadgen: empty mix")
	}
	return m, nil
}

// Arrival processes.
const (
	ArrivalFixed   = "fixed"
	ArrivalPoisson = "poisson"
)

// Config parameterizes one open-loop run.
type Config struct {
	Addr        string
	Conns       int
	Rate        float64 // target op rate, total across connections
	Duration    time.Duration
	Mix         Mix
	Keys        int     // keyspace size (pages)
	Skew        float64 // zipf s parameter; values <= 1 mean uniform
	Arrival     string  // ArrivalFixed or ArrivalPoisson
	PageSize    int
	Seed        int64
	Outstanding int // per-conn pipeline depth bound (backpressure)
}

// normalize fills defaults and validates.
func (c *Config) normalize() error {
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.Rate <= 0 {
		return fmt.Errorf("loadgen: rate must be positive")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("loadgen: duration must be positive")
	}
	if c.Mix.total() <= 0 {
		c.Mix = Mix{Put: 45, Get: 45, Flush: 10}
	}
	if c.Keys <= 0 {
		c.Keys = 1 << 16
	}
	if c.PageSize <= 0 {
		c.PageSize = 4096
	}
	if c.Outstanding <= 0 {
		c.Outstanding = 4096
	}
	switch c.Arrival {
	case "":
		c.Arrival = ArrivalFixed
	case ArrivalFixed, ArrivalPoisson:
	default:
		return fmt.Errorf("loadgen: unknown arrival process %q (fixed, poisson)", c.Arrival)
	}
	return nil
}

// Op labels for histograms and reports.
var opLabels = []string{"put", "get", "flush"}

const (
	opPutIdx = iota
	opGetIdx
	opFlushIdx
	numOps
)

// Result is what one run measured. Latencies are recorded per-op into
// private per-worker histograms (contention-free) and merged here; every
// latency is measured from the op's *intended* send time under the target
// schedule, so queueing caused by a slow server is charged to the ops that
// suffered it (coordinated-omission-safe).
type Result struct {
	Config   Config
	Elapsed  time.Duration
	Sent     int64 // requests written to the wire
	Complete int64 // responses received
	Errors   int64 // transport/protocol failures
	Rejects  int64 // clean non-S_TMEM statuses (get misses, full-store puts)

	Ops map[string]*hdr.Histogram // per-op plus "all"
}

// AchievedRate returns completed ops per second.
func (r *Result) AchievedRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Complete) / r.Elapsed.Seconds()
}

// pendingOp rides the writer->reader queue of one connection: which op was
// sent and when the schedule intended it to leave. Latency is measured
// from that intent.
type pendingOp struct {
	op       uint8
	intended time.Duration // offset from the run's t0
}

// worker drives one connection: an open-loop writer paced by the arrival
// schedule and a reader that matches in-order responses to sent ops.
type worker struct {
	cfg      Config
	pool     tmem.PoolID
	conn     net.Conn
	rng      *rand.Rand
	zipf     *rand.Zipf
	perConn  float64 // this connection's op rate
	hists    [numOps]*hdr.Histogram
	sent     int64
	complete int64
	errors   int64
	rejects  int64
}

// keyFor maps a key-space id to a wire key: 64-page objects, matching the
// guest's object granularity.
func (w *worker) keyFor(id uint64) tmem.Key {
	return tmem.Key{Pool: w.pool, Object: tmem.ObjectID(id >> 6), Index: tmem.PageIndex(id & 63)}
}

// nextKey draws from the configured key distribution.
func (w *worker) nextKey() uint64 {
	if w.zipf != nil {
		return w.zipf.Uint64()
	}
	return uint64(w.rng.Intn(w.cfg.Keys))
}

// nextOp draws from the mix.
func (w *worker) nextOp() uint8 {
	n := w.rng.Intn(w.cfg.Mix.total())
	if n < w.cfg.Mix.Put {
		return opPutIdx
	}
	if n < w.cfg.Mix.Put+w.cfg.Mix.Get {
		return opGetIdx
	}
	return opFlushIdx
}

// interarrival draws the gap to the next intended send.
func (w *worker) interarrival() time.Duration {
	mean := float64(time.Second) / w.perConn
	if w.cfg.Arrival == ArrivalPoisson {
		return time.Duration(w.rng.ExpFloat64() * mean)
	}
	return time.Duration(mean)
}

// run executes the worker until the deadline, then drains responses.
func (w *worker) run(ctx context.Context, t0 time.Time, wg *sync.WaitGroup) {
	defer wg.Done()
	defer w.conn.Close()
	pending := make(chan pendingOp, w.cfg.Outstanding)
	var rd sync.WaitGroup
	rd.Add(1)
	go func() {
		defer rd.Done()
		w.read(t0, pending)
	}()
	w.write(ctx, t0, pending)
	close(pending)
	rd.Wait()
}

// write is the open-loop sender: ops leave at their intended schedule
// times (or as soon after as the writer can manage — the schedule never
// slips because the server is slow, which is the whole point), streamed
// through a buffered writer that is flushed whenever the writer is about
// to go idle.
func (w *worker) write(ctx context.Context, t0 time.Time, pending chan<- pendingOp) {
	bw := bufio.NewWriterSize(w.conn, 64<<10)
	page := make([]byte, w.cfg.PageSize)
	for i := range page {
		page[i] = byte(i * 31)
	}
	frame := make([]byte, 0, 1+16+4+w.cfg.PageSize)
	wireOps := [numOps]byte{kvstore.OpPut, kvstore.OpGet, kvstore.OpFlushPage}

	intended := w.interarrival() // first op arrives one gap after t0
	for intended < w.cfg.Duration {
		if ctx.Err() != nil {
			break
		}
		if now := time.Since(t0); intended > now {
			// Ahead of schedule: deliver what is buffered, then sleep
			// until the next intended departure. Timer wake-up slop lands
			// in the measured latencies — an open-loop generator charges
			// every delay to the ops that suffered it, its own included;
			// spinning the slop away instead would steal the CPU the
			// server needs on small machines.
			if err := bw.Flush(); err != nil {
				atomic.AddInt64(&w.errors, 1)
				return
			}
			time.Sleep(intended - now)
		}
		op := w.nextOp()
		key := w.keyFor(w.nextKey())
		frame = frame[:0]
		frame = append(frame, wireOps[op])
		frame = key.AppendWire(frame)
		if op == opPutIdx {
			binary.BigEndian.PutUint64(page, uint64(key.Object)<<6|uint64(key.Index))
			frame = binary.BigEndian.AppendUint32(frame, uint32(len(page)))
			frame = append(frame, page...)
		} else {
			frame = binary.BigEndian.AppendUint32(frame, 0)
		}
		if _, err := bw.Write(frame); err != nil {
			atomic.AddInt64(&w.errors, 1)
			return
		}
		// Blocking here (queue full) is backpressure from the reader; the
		// next intended timestamps keep marching, so the latency cost of
		// the stall lands in the histograms.
		select {
		case pending <- pendingOp{op: op, intended: intended}:
		case <-ctx.Done():
			return
		}
		atomic.AddInt64(&w.sent, 1)
		intended += w.interarrival()
	}
	if err := bw.Flush(); err != nil {
		atomic.AddInt64(&w.errors, 1)
	}
}

// read matches responses (in order — the protocol guarantees per-conn
// ordering) to pending ops and records intended-to-response latency.
func (w *worker) read(t0 time.Time, pending <-chan pendingOp) {
	br := bufio.NewReaderSize(w.conn, 64<<10)
	scratch := make([]byte, w.cfg.PageSize)
	var hdrBuf [5]byte
	// On an early error exit the writer may still be pushing ops; keep
	// draining the queue (counting each as a transport error) so the
	// writer never blocks on a dead reader. On a normal exit the channel
	// is already closed and drained, so this is a no-op.
	defer func() {
		var n int64
		for range pending {
			n++
		}
		atomic.AddInt64(&w.errors, n)
	}()
	for p := range pending {
		if _, err := io.ReadFull(br, hdrBuf[:]); err != nil {
			atomic.AddInt64(&w.errors, 1)
			return
		}
		n := binary.BigEndian.Uint32(hdrBuf[1:5])
		if int(n) > len(scratch) {
			atomic.AddInt64(&w.errors, 1)
			return
		}
		if _, err := io.ReadFull(br, scratch[:n]); err != nil {
			atomic.AddInt64(&w.errors, 1)
			return
		}
		w.hists[p.op].Record(int64(time.Since(t0) - p.intended))
		atomic.AddInt64(&w.complete, 1)
		if st := tmem.Status(int8(hdrBuf[0])); st != tmem.STmem {
			atomic.AddInt64(&w.rejects, 1)
		}
	}
}

// Run executes one open-loop load run against a serving kvd.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}

	// One setup round trip creates the shared pool every connection uses;
	// contention on shared keys is part of the workload being measured.
	setupConn, err := kvstore.DialRetryContext(ctx, "tcp", cfg.Addr, 10, 100*time.Millisecond)
	if err != nil {
		return nil, err
	}
	setup := kvstore.NewClient(setupConn, cfg.PageSize)
	pool, err := setup.NewPool(1, tmem.Persistent)
	if err != nil {
		setup.Close()
		return nil, fmt.Errorf("loadgen: pool setup: %w", err)
	}
	setup.Close()

	workers := make([]*worker, cfg.Conns)
	for i := range workers {
		conn, err := kvstore.DialRetryContext(ctx, "tcp", cfg.Addr, 5, 100*time.Millisecond)
		if err != nil {
			for _, w := range workers[:i] {
				w.conn.Close()
			}
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		w := &worker{
			cfg:     cfg,
			pool:    pool,
			conn:    conn,
			rng:     rng,
			perConn: cfg.Rate / float64(cfg.Conns),
		}
		if cfg.Skew > 1 && cfg.Keys > 1 {
			w.zipf = rand.NewZipf(rng, cfg.Skew, 1, uint64(cfg.Keys-1))
		}
		for o := range w.hists {
			w.hists[o] = hdr.New()
		}
		workers[i] = w
	}

	t0 := time.Now()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go w.run(ctx, t0, &wg)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	res := &Result{
		Config:  cfg,
		Elapsed: elapsed,
		Ops:     make(map[string]*hdr.Histogram, numOps+1),
	}
	all := hdr.New()
	for o, label := range opLabels {
		merged := hdr.New()
		for _, w := range workers {
			merged.Add(w.hists[o])
		}
		all.Add(merged)
		res.Ops[label] = merged
	}
	res.Ops["all"] = all
	for _, w := range workers {
		res.Sent += atomic.LoadInt64(&w.sent)
		res.Complete += atomic.LoadInt64(&w.complete)
		res.Errors += atomic.LoadInt64(&w.errors)
		res.Rejects += atomic.LoadInt64(&w.rejects)
	}
	// Cancellation is a requested stop, not a failure: report whatever
	// was measured up to the interrupt.
	return res, nil
}

// StartInprocess brings up a loopback kvd-equivalent server (sharded
// backend, same wire protocol) inside this process, for self-contained
// smokes and tests. The returned stop function shuts it down.
//
// A non-empty dir puts the kvd's -durable journal write-through underneath:
// puts, flushes and pool ops commit to a segmented WAL under dir, with
// fsync policy fp, before acking, through the same NewDirStore → Open →
// NewStore → Recover chain the daemon boots with. This is the store the
// durable SLO smoke drives — wire-rate latency with the commit path in the
// loop instead of memory-only acks. An empty dir means no journal.
func StartInprocess(pages int64, shards, pageSize int, dir string, fp durable.FsyncPolicy) (addr string, stop func(), err error) {
	backend := tmem.NewBackendOpts(mem.Pages(pages), tmem.Options{
		Shards:   shards,
		NewStore: func() tmem.PageStore { return tmem.NewDataStore(pageSize) },
	})
	srv, closeLog := kvstore.NewServerStore(backend), func() {}
	if dir != "" {
		blob, err := durable.NewDirStore(dir)
		if err != nil {
			return "", nil, err
		}
		dlog, err := durable.Open(durable.Options{Blob: blob, PageSize: pageSize, Fsync: fp})
		if err != nil {
			return "", nil, err
		}
		closeLog = func() { _ = dlog.Close() }
		dstore := durable.NewStore(backend, dlog)
		if _, err := dstore.Recover(); err != nil {
			closeLog()
			return "", nil, err
		}
		srv = kvstore.NewServerStore(dstore)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeLog()
		return "", nil, err
	}
	go func() { _ = srv.Serve(l) }()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		closeLog()
	}
	return l.Addr().String(), stop, nil
}
