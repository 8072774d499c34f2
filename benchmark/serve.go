package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"smartmem/internal/durable"
	"smartmem/internal/kvstore"
	"smartmem/internal/mem"
	"smartmem/internal/tmem"
)

// serveSpec is one serving workload: what is assembled behind the socket
// and the traffic sent at it.
type serveSpec struct {
	name       string
	mix        trafficMix
	localPages int
	depth      int // closed-loop requests outstanding per connection

	// Tiers below the local store; zero leaves a tier out.
	compressBytes int64
	peerPages     int
	// journal selects the durable write-through store kvd runs with
	// -durable, with this compaction threshold.
	journal      bool
	compactBytes int64

	setups   int           // how many times the run sets up; setup_s is the median
	openRate float64       // Phase A frames per second, frozen
	window   time.Duration // Phase A percentile window
	tailQ    float64       // tail percentile: ≥ 10 frames beyond it per window at openRate
	limit    time.Duration // latency limit, frozen
}

// stack is one assembled server: the store the wire executes against and
// everything attached below it.
type stack struct {
	srv     *kvstore.Server
	addr    string
	serving chan error

	backend *tmem.Backend
	comp    *tmem.CompressedTier
	remote  *tmem.RemoteTier
	peer    *stack
	peerCl  *kvstore.SyncClient
	dlog    *durable.Log
	dstore  *durable.Store
	blob    *blobDecor
	metrics *kvstore.Metrics
}

func newDataBackend(pages int) *tmem.Backend {
	return tmem.NewBackendOpts(mem.Pages(pages), tmem.Options{
		Shards:   workers,
		NewStore: func() tmem.PageStore { return tmem.NewDataStore(pageSize) },
	})
}

// serve starts a server over store on a loopback port.
func (s *stack) serve(store kvstore.Store, pr *probes, prefix string) error {
	if pr != nil {
		store = decorateStore(store, pr, prefix)
	}
	s.srv = kvstore.NewServerStore(store)
	if pr != nil && prefix == "store" {
		s.metrics = kvstore.NewMetrics()
		s.srv.SetMetrics(s.metrics)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = ln.Addr().String()
	s.serving = make(chan error, 1)
	go func() { s.serving <- s.srv.Serve(ln) }()
	return nil
}

// buildStack assembles spec's server the way smartmem-kvd does: backend,
// compressed tier, remote tier over a wire client to a peer server, then
// the journal wrapped around the lot and recovered from dir. pr is nil for
// an untraced run, which then has no decorator anywhere.
func buildStack(spec serveSpec, dir string, pr *probes) (*stack, error) {
	s := &stack{backend: newDataBackend(spec.localPages)}
	if spec.compressBytes > 0 {
		s.comp = tmem.NewCompressedTier(tmem.CompressedTierConfig{PageSize: pageSize, CapacityBytes: mem.Bytes(spec.compressBytes)})
		var t tmem.BatchTier = s.comp
		if pr != nil {
			t = decorateTier(t, pr, "compressed")
		}
		s.backend.AttachTier(t)
	}
	if spec.peerPages > 0 {
		s.peer = &stack{backend: newDataBackend(spec.peerPages)}
		if err := s.peer.serve(s.peer.backend, pr, "peer"); err != nil {
			return nil, err
		}
		nc, err := net.Dial("tcp", s.peer.addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.peerCl = kvstore.NewSyncClient(kvstore.NewClient(nc, pageSize))
		var svc wireService = s.peerCl
		if pr != nil {
			svc = decorateService(svc, pr, "remote.wire")
		}
		s.remote = tmem.NewRemoteTier("remote(peer)", svc, 1000)
		var t tmem.BatchTier = s.remote
		if pr != nil {
			t = decorateTier(t, pr, "remote")
		}
		s.backend.AttachTier(t)
	}
	var store kvstore.Store = s.backend
	if spec.journal {
		dir, err := durable.NewDirStore(dir)
		if err != nil {
			s.close()
			return nil, err
		}
		var blob durable.BlobStore = dir
		if pr != nil {
			s.blob = decorateBlob(dir, pr, true)
			blob = s.blob
		}
		s.dlog, err = durable.Open(durable.Options{
			Blob: blob, PageSize: pageSize,
			Fsync: durable.FsyncInterval, CompactBytes: spec.compactBytes,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.dstore = durable.NewStore(s.backend, s.dlog)
		if _, err := s.dstore.Recover(); err != nil {
			s.close()
			return nil, err
		}
		store = s.dstore
	}
	if err := s.serve(store, pr, "store"); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the servers and closes the journal the way a crash leaves it
// (Close, never CloseClean): the next Open must replay snapshot + WAL.
// Closing twice is harmless.
func (s *stack) close() {
	if s == nil {
		return
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		s.srv.Shutdown(ctx)
		cancel()
		<-s.serving
		s.srv = nil
	}
	if s.dlog != nil {
		s.dlog.Close() // idempotent
	}
	if s.peerCl != nil {
		s.peerCl.Close()
		s.peerCl = nil
	}
	s.peer.close()
}

// serveRun is a stack with its connections up and its keys prefilled.
type serveRun struct {
	spec   serveSpec
	bodies *pageBodies
	stack  *stack
	conns  []*clientConn
	base   baseline
}

// baseline is the state of the cumulative counters when set-up ended; the
// per-layer metrics are differences against it, so prefill does not count.
type baseline struct {
	t       tally
	in, out uint64
	log     durable.Stats
	comp    tmem.CompressedTierStats
	remote  tmem.TierStats
}

func (r *serveRun) snapshot() baseline {
	b := baseline{t: r.tally()}
	st := r.stack
	if st.metrics != nil {
		b.in, b.out = st.metrics.BytesIn(), st.metrics.BytesOut()
	}
	if st.dlog != nil {
		b.log = st.dlog.Stats()
	}
	if st.comp != nil {
		b.comp = st.comp.CompressedStats()
	}
	if st.remote != nil {
		b.remote = st.remote.Stats()
	}
	return b
}

func (r *serveRun) closeConns() {
	for _, c := range r.conns {
		c.nc.Close()
	}
}

// setUp builds the stack, connects, and puts every key once.
func setUp(spec serveSpec, dir string, pr *probes, bodies *pageBodies) (*serveRun, error) {
	st, err := buildStack(spec, dir, pr)
	if err != nil {
		return nil, err
	}
	r := &serveRun{spec: spec, bodies: bodies, stack: st}
	pool, err := newPool(st.addr)
	if err != nil {
		st.close()
		return nil, err
	}
	errs := make([]error, spec.mix.conns)
	var wg sync.WaitGroup
	for i := 0; i < spec.mix.conns; i++ {
		c, err := dialConn(st.addr, i, spec.mix, pool)
		if err != nil {
			r.closeConns()
			st.close()
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	for i, c := range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.prefill(bodies)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			r.closeConns()
			st.close()
			return nil, fmt.Errorf("benchmark: prefill: %w", err)
		}
	}
	if st.dlog != nil {
		// Fold the prefill into a snapshot now. Otherwise its WAL bytes
		// bring the first compaction into the middle of the open-loop
		// phase, where it splits the windows into two regimes and the
		// median over windows lands between them.
		if err := st.dlog.Compact(); err != nil {
			r.closeConns()
			st.close()
			return nil, fmt.Errorf("benchmark: compact after prefill: %w", err)
		}
	}
	return r, nil
}

// tally sums the connections' counters.
type tally struct {
	frames, pages, failed, rejects, putPages, getPages, getHits int64
	err                                                         error
}

func (r *serveRun) tally() tally {
	var t tally
	for _, c := range r.conns {
		t.frames += c.frames
		t.pages += c.pages
		t.failed += c.failed
		t.rejects += c.rejects
		t.putPages += c.putPages
		t.getPages += c.getPages
		t.getHits += c.getHits
		if t.err == nil {
			t.err = c.err
		}
	}
	return t
}

// runServe runs one serving workload and returns its result.
func runServe(spec serveSpec, seed uint64, seconds float64, traced bool, scratch string) (*result, error) {
	res := newResult()
	bodies := newPageBodies(seed)
	var pr *probes
	var tr *Tracer
	if traced {
		tr = NewTracer()
		names := append(storeBoundaries("store"), storeBoundaries("peer")...)
		names = append(names, storeBoundaries("null")...)
		names = append(names, tierBoundaries("compressed")...)
		names = append(names, tierBoundaries("remote")...)
		names = append(names, blobBoundaries...)
		pr = newProbes(tr, append(names, "remote.wire")...)
	}

	// --- set-up, several times over; the last one is kept and measured ---
	var setups []float64
	var run *serveRun
	for rep := 0; rep < spec.setups; rep++ {
		dir := filepath.Join(scratch, fmt.Sprintf("wal-%d", rep))
		start := time.Now()
		r, err := setUp(spec, dir, pr, bodies)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if rep < spec.setups-1 {
			r.closeConns()
			r.stack.close()
			os.RemoveAll(dir)
			// A discarded set-up's garbage must not count towards the
			// measured run's peak RSS.
			debug.FreeOSMemory()
			continue
		}
		run = r
	}
	defer func() {
		run.closeConns()
		run.stack.close()
	}()
	res.set("setup_s", quantile(sortedCopy(setups), 0.5))
	res.note("set-up %d times: %.3f s each (median reported)", spec.setups, setups)
	walDir := filepath.Join(scratch, fmt.Sprintf("wal-%d", spec.setups-1))

	spanA := time.Duration(0.6 * seconds * float64(time.Second))
	spanB := time.Duration(0.4 * seconds * float64(time.Second))
	sched := buildSchedule(spec.mix, seed, spec.openRate, spanA, run.conns)
	if traced {
		pr.reset()
		run.base = run.snapshot()
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// --- Phase A: open loop at the frozen rate ---
	open := runOpenLoop(run.conns, sched, spanA, spec.window, bodies)
	ws := open.windows.Reduce(spec.tailQ, int64(spec.limit))
	if ws.Windows == 0 {
		return nil, fmt.Errorf("benchmark: %s: no %v window held the %.0f frames a p%g needs; run longer", spec.name, spec.window, minBeyond/(1-spec.tailQ), 100*spec.tailQ)
	}
	res.set("latency_p50_us", ws.P50/1e3)
	res.note("phase A: %d frames at %.0f/s in %d windows of %v, server CPU %.2f busy: p50 %.1f us (quiet level over windows), p%g %.1f us (of the quiet windows' %d frames); whole run p99 %.1f us, p99.9 %.1f us, max %.2f ms, %.4f over the %v limit",
		ws.Samples, spec.openRate, ws.Windows, spec.window, open.serverBusy, ws.P50/1e3, 100*spec.tailQ, ws.Tail/1e3, ws.QuietSamples,
		float64(ws.P99)/1e3, float64(ws.P999)/1e3, float64(ws.Max)/1e6, ws.OverLimit, spec.limit)

	res.note("generator lateness: p50 %.1f us, p99 %.1f us, max %.2f ms",
		float64(quantile(open.lateness, 0.50))/1e3, float64(quantile(open.lateness, 0.99))/1e3, float64(open.lateness[len(open.lateness)-1])/1e6)

	// --- Phase B: closed loop ---
	var msB0, msB1 runtime.MemStats
	runtime.ReadMemStats(&msB0)
	framesB0 := run.tally().frames
	sat := runClosedLoop(run.conns, spec.mix, seed, spec.depth, spanB, bodies)
	runtime.ReadMemStats(&msB1)
	framesB := run.tally().frames - framesB0
	res.set("throughput_per_s", sat)

	if traced {
		res.layer("loadgen.late_p50_us", float64(quantile(open.lateness, 0.50))/1e3)
		res.layer("loadgen.late_p99_us", float64(quantile(open.lateness, 0.99))/1e3)
		res.layer("loadgen.quiet_tail_us", ws.Tail/1e3)
		res.layer("loadgen.server_cpu_busy", open.serverBusy)
		res.layer("loadgen.run_p99_us", float64(ws.P99)/1e3)
		res.layer("loadgen.run_p999_us", float64(ws.P999)/1e3)
		res.layer("loadgen.run_max_ms", float64(ws.Max)/1e6)
		res.layer("loadgen.stall_windows", float64(ws.Stalls))
		res.layer("loadgen.over_limit_share", ws.OverLimit)
		res.layer("kvstore.mallocs_per_op", ratio(float64(msB1.Mallocs-msB0.Mallocs), float64(framesB)))
		res.layer("kvstore.alloc_bytes_per_op", ratio(float64(msB1.TotalAlloc-msB0.TotalAlloc), float64(framesB)))
		if err := serveLayers(res, run, pr, tr, sat, seed, spanB, scratch); err != nil {
			return nil, err
		}
		res.layer("runtime.gc_cycles", float64(msB1.NumGC-ms0.NumGC))
		res.layer("runtime.gc_pause_ms_total", float64(msB1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	}

	t := run.tally()
	res.attempted += t.frames
	res.failed += t.failed
	if t.err != nil {
		res.note("transport error: %v", t.err)
	}
	res.note("%d frames, %d pages, %d failed; %d of %d put pages refused (capacity), %d of %d get pages hit",
		t.frames, t.pages, t.failed, t.rejects, t.putPages, t.getHits, t.getPages)

	// --- un-clean reopen: every acknowledged, unflushed page must come back ---
	if spec.journal {
		run.closeConns()
		run.stack.close()
		start := time.Now()
		reopened, err := buildStack(spec, walDir, pr)
		if err != nil {
			return nil, fmt.Errorf("benchmark: reopen: %w", err)
		}
		recoverMs := float64(time.Since(start)) / 1e6
		checked, bad := run.verifyRecovered(reopened.dstore)
		ri := reopened.dlog.Recovery()
		reopened.close()
		res.attempted += checked
		res.failed += bad
		res.note("recovery (journal closed without CloseClean, fsync=interval; write(2)-level durability): %.0f ms, snapshot %d pages + %d WAL records, %d pages checked, %d wrong",
			recoverMs, ri.SnapshotPages, ri.WALRecords, checked, bad)
		if traced {
			res.layer("durable.recover_ms", recoverMs)
		}
	}
	res.set("peak_rss_mb", peakRSSMiB())
	if traced {
		if err := WriteSpans(spanPath(spec.name), spec.name, tr.Spans()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// verifyRecovered reads every key back from the recovered store and checks
// it against the model the connections built.
func (r *serveRun) verifyRecovered(store *durable.Store) (checked, bad int64) {
	page := make([]byte, pageSize)
	for _, c := range r.conns {
		for slot, s := range c.state {
			if s == stateUnknown {
				continue
			}
			checked++
			st := store.Get(c.key(uint32(slot)), page)
			ok := st != tmem.STmem
			if s >= stateBase {
				ok = st == tmem.STmem && r.bodies.Matches(page, c.keyID(uint32(slot)), s-stateBase)
			}
			if !ok {
				bad++
			}
		}
	}
	return checked, bad
}

// nullStore answers every request without doing anything: what is left is
// the wire layer.
type nullStore struct{}

func (nullStore) PageSize() mem.Bytes                                { return pageSize }
func (nullStore) NewPool(tmem.VMID, tmem.PoolKind) tmem.PoolID       { return 1 }
func (nullStore) DestroyPool(tmem.PoolID) error                      { return nil }
func (nullStore) Put(tmem.Key, []byte) tmem.Status                   { return tmem.STmem }
func (nullStore) Get(tmem.Key, []byte) tmem.Status                   { return tmem.STmem }
func (nullStore) FlushPage(tmem.Key) tmem.Status                     { return tmem.STmem }
func (nullStore) PutBatch(_ []tmem.Key, _ [][]byte, _ []tmem.Status) {}
func (nullStore) GetBatch(_ []tmem.Key, _ [][]byte, _ []tmem.Status) {}
func (nullStore) FlushObject(tmem.PoolID, tmem.ObjectID) (mem.Pages, tmem.Status) {
	return 0, tmem.STmem
}
