package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smartmem/internal/core"
)

// RunEvent is one lifecycle event of a node run (see core.Event),
// re-exported so sweep callers can receive event streams without importing
// core directly.
type RunEvent = core.Event

// Job is one (scenario, policy, seed) cell of an experiment sweep — the
// unit of work the engine schedules. Every figure and table of the paper's
// evaluation decomposes into a list of Jobs.
type Job struct {
	Scenario   *Scenario
	PolicySpec string
	Seed       uint64
}

func (j Job) String() string {
	slug := "?"
	if j.Scenario != nil {
		slug = j.Scenario.Slug
	}
	return fmt.Sprintf("%s/%s seed %d", slug, j.PolicySpec, j.Seed)
}

// JobResult pairs a job with its outcome. Index is the job's position in
// the submitted slice; the engine returns results merged by index, never by
// completion order, so parallel sweeps aggregate identically to sequential
// ones.
type JobResult struct {
	Job    Job
	Index  int
	Result *core.Result
	Err    error
}

// ErrSkipped marks jobs that were never dispatched because an earlier job
// failed (fail-fast) or the caller's context was cancelled. Test with
// errors.Is on JobResult.Err to distinguish skipped jobs from failed ones
// in a partial result set.
var ErrSkipped = errors.New("experiments: job skipped after earlier failure or cancellation")

// SchedulerMode selects how the engine hands jobs to its workers.
type SchedulerMode int

const (
	// SchedulerSteal (the zero value) distributes jobs longest-expected-
	// first over per-worker deques; an idle worker steals from its peers.
	// Long cells (no-tmem baselines, cluster scenarios) start early instead
	// of straggling at the tail, so a mixed sweep finishes when the longest
	// single cell does, not when an unlucky worker's static share does.
	// Results are byte-identical to any other mode: scheduling changes only
	// wall-clock order, and results merge by index.
	SchedulerSteal SchedulerMode = iota
	// SchedulerStatic is the historical fixed channel feed (jobs dispatched
	// in submission order to whichever worker asks next). Kept as the
	// baseline leg of BenchmarkSweep and as a fallback knob.
	SchedulerStatic
)

// Engine executes experiment jobs on a worker pool. The zero value is
// usable: it runs with runtime.NumCPU() workers, the work-stealing
// scheduler, no cache and no progress reporting. Each job is an independent
// core.Run with its own simulation kernel and RNG streams, so jobs are
// race-free by construction (verified by go test -race).
type Engine struct {
	// Parallelism is the number of concurrent workers; values <= 0 select
	// runtime.NumCPU(). Parallelism 1 reproduces the historical sequential
	// behaviour exactly (jobs run in submission order, whatever the
	// Scheduler setting).
	Parallelism int
	// Scheduler selects the dispatch strategy; see SchedulerMode.
	Scheduler SchedulerMode
	// Cache, when non-nil, memoizes completed runs by fingerprint: a cell
	// whose fingerprint is cached returns the stored result without
	// simulating, byte-identically (the simulator is deterministic).
	// Successful runs are stored back best-effort. The cache is bypassed
	// while OnEvent is set — a memo hit replays no lifecycle events, so
	// event-stream consumers always watch real runs.
	Cache *Memo
	// OnProgress, when non-nil, is invoked after every job completes with
	// the number of finished jobs, the total, and the job that just
	// finished. Calls are serialized by the engine; the callback does not
	// need to be concurrency-safe.
	OnProgress func(done, total int, j Job)
	// OnEvent, when non-nil, receives every lifecycle event of every
	// job's run (see core.Event), tagged with the job that produced it.
	// Calls are serialized across workers; the callback does not need to
	// be concurrency-safe. Event order is deterministic within a job but
	// jobs interleave by completion timing.
	OnEvent func(j Job, e core.Event)
	// ClusterParallel selects whether cluster-scenario jobs run on the
	// parallel cluster runtime (core.ClusterConfig.Parallel — one kernel
	// per node, results byte-identical to sequential). Auto spends spare
	// cores on per-run parallelism only when the job-level pool cannot
	// fill the machine by itself.
	ClusterParallel ClusterParallelMode

	// scalarsOnly makes cache hits fetch the cell's scalar record alone
	// (Result.Series nil). Set by the entry points whose aggregation reads
	// no series — RunTournament, TimesOpts — and by nothing else: those
	// never hand a JobResult to their caller.
	scalarsOnly bool
}

// ClusterParallelMode is the Engine/Options knob for per-run cluster
// parallelism.
type ClusterParallelMode int

const (
	// ClusterParallelAuto (the zero value) enables the parallel cluster
	// runtime when the worker pool is smaller than the core count — few
	// jobs on a wide machine — and stays sequential otherwise, where
	// job-level parallelism already saturates the CPUs.
	ClusterParallelAuto ClusterParallelMode = iota
	// ClusterParallelOn always runs cluster jobs on the parallel runtime.
	ClusterParallelOn
	// ClusterParallelOff always uses the sequential single-kernel runtime.
	ClusterParallelOff
)

// clusterParallel resolves the mode against the pool size for n jobs.
func (e *Engine) clusterParallel(n int) bool {
	switch e.ClusterParallel {
	case ClusterParallelOn:
		return true
	case ClusterParallelOff:
		return false
	}
	return e.workers(n) < runtime.NumCPU()
}

// workers returns the effective pool size for n jobs.
func (e *Engine) workers(n int) int {
	w := e.Parallelism
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	return w
}

// Run executes jobs concurrently and returns one JobResult per job, in job
// order. The first job error cancels all not-yet-started jobs (fail-fast)
// and is returned; results for skipped jobs carry ErrSkipped. A nil ctx
// means context.Background(); cancelling ctx stops dispatch after in-flight
// jobs finish.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]JobResult, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]JobResult, len(jobs))
	for i := range results {
		results[i] = JobResult{Job: jobs[i], Index: i, Err: ErrSkipped}
	}

	st := &sweepState{
		engine:     e,
		ctx:        ctx,
		cancel:     cancel,
		jobs:       jobs,
		results:    results,
		clusterPar: e.clusterParallel(len(jobs)),
		jobIdx:     len(jobs),
	}

	// A single worker keeps the historical strictly-sequential submission
	// order (tests and callers rely on Parallelism 1 meaning "the old
	// sequential loop"); deques would add nothing there.
	if workers := e.workers(len(jobs)); workers == 1 || e.Scheduler == SchedulerStatic {
		st.runStatic(workers)
	} else {
		st.runStealing(workers)
	}

	if st.jobErr != nil {
		return results, st.jobErr
	}
	if err := ctx.Err(); err != nil && st.done < len(jobs) {
		return results, err
	}
	return results, nil
}

// sweepState is the shared state of one Engine.Run call.
type sweepState struct {
	engine     *Engine
	ctx        context.Context
	cancel     context.CancelFunc
	jobs       []Job
	results    []JobResult
	clusterPar bool

	mu      sync.Mutex
	eventMu sync.Mutex
	done    int
	jobErr  error // first real failure, lowest job index wins
	jobIdx  int
}

// scratch is one worker's recycled state. The memo encode buffer survives
// across jobs, so a sweep's steady-state cache writes allocate nothing
// beyond the blobs handed to the store.
type scratch struct {
	enc []byte
}

// execute runs (or recalls from cache) the job at idx and records its
// outcome. It is the one place results, progress, and fail-fast state are
// updated, shared by both scheduler modes.
func (st *sweepState) execute(idx int, sc *scratch) {
	e := st.engine
	job := st.jobs[idx]
	jr := JobResult{Job: job, Index: idx}

	var fp Fingerprint
	cached := false
	useCache := e.Cache != nil && e.OnEvent == nil
	if useCache {
		var err error
		if fp, err = JobFingerprint(job); err != nil {
			// Unfingerprintable jobs (a Build error) fail identically on
			// the real run below; just skip the cache.
			useCache = false
		} else if res, ok := e.Cache.get(fp, !e.scalarsOnly); ok {
			jr.Result, cached = res, true
		}
	}
	if !cached {
		var obs core.Observer
		if e.OnEvent != nil {
			obs = core.ObserverFunc(func(ev core.Event) {
				st.eventMu.Lock()
				e.OnEvent(job, ev)
				st.eventMu.Unlock()
			})
		}
		start := time.Now()
		jr.Result, jr.Err = runOneWith(job.Scenario, job.PolicySpec, job.Seed, obs, st.clusterPar)
		if jr.Err == nil {
			observeCost(job, time.Since(start))
			// Only complete, successful runs are cached: errors and
			// HitLimit runs never produce an entry, and the store's Put is
			// atomic (temp file + rename), so a cancelled sweep can cut the
			// job list short but never leaves a partial entry behind. Cache
			// writes are best-effort — a full disk must not fail the sweep
			// (the Memo counts the failure).
			if useCache && !jr.Result.Cancelled {
				_ = e.Cache.put(fp, jr.Result, &sc.enc)
			}
		}
	}
	st.results[idx] = jr

	st.mu.Lock()
	st.done++
	if jr.Err != nil {
		if idx < st.jobIdx {
			st.jobErr, st.jobIdx = jr.Err, idx
		}
		st.cancel() // fail fast: stop dispatching further jobs
	}
	if e.OnProgress != nil {
		e.OnProgress(st.done, len(st.jobs), job)
	}
	st.mu.Unlock()
}

// runStatic is the historical dispatch: a feeder goroutine hands out job
// indexes in submission order to whichever worker asks next.
func (st *sweepState) runStatic(workers int) {
	indexes := make(chan int)
	go func() {
		defer close(indexes)
		for i := range st.jobs {
			select {
			case indexes <- i:
			case <-st.ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc scratch
			for idx := range indexes {
				st.execute(idx, &sc)
			}
		}()
	}
	wg.Wait()
}

// runStealing distributes jobs longest-expected-first over per-worker
// deques; a worker that drains its own deque steals from its peers. No new
// work is ever produced mid-sweep, so a worker that finds every deque empty
// can simply exit — work conservation holds because an index leaves a deque
// exactly once, into execute.
func (st *sweepState) runStealing(workers int) {
	order := scheduleOrder(st.jobs)
	deques := make([]jobDeque, workers)
	for i, idx := range order {
		deques[i%workers].push(idx)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			var sc scratch
			for {
				if st.ctx.Err() != nil {
					return // fail-fast / cancellation: stop dispatching
				}
				idx, ok := deques[self].pop()
				for off := 1; !ok && off < workers; off++ {
					idx, ok = deques[(self+off)%workers].pop()
				}
				if !ok {
					return
				}
				st.execute(idx, &sc)
			}
		}(w)
	}
	wg.Wait()
}

// jobDeque is one worker's queue of job indexes, longest-expected job
// first. A plain mutex suffices: cells run for milliseconds to seconds, so
// queue operations are nowhere near contended enough to justify a lock-free
// Chase–Lev deque.
type jobDeque struct {
	mu   sync.Mutex
	jobs []int
}

func (d *jobDeque) push(idx int) { d.jobs = append(d.jobs, idx) }

// pop removes the front (longest-expected) job. Owner and thieves pop the
// same end: with every deque sorted longest-first, whichever worker goes
// idle always picks up the longest pending cell — the LPT greedy rule.
func (d *jobDeque) pop() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.jobs) == 0 {
		return 0, false
	}
	idx := d.jobs[0]
	d.jobs = d.jobs[1:]
	return idx, true
}

// scheduleOrder returns job indexes sorted longest-expected-first
// (deterministically: ties keep submission order).
func scheduleOrder(jobs []Job) []int {
	order := make([]int, len(jobs))
	costs := make([]float64, len(jobs))
	for i := range jobs {
		order[i] = i
		costs[i] = estimateCost(jobs[i])
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })
	return order
}

// costModel learns wall-clock durations per (scenario, policy) across
// sweeps in this process: an EWMA (α = 1/2) of observed run times,
// consulted by scheduleOrder. Before any observation a static heuristic
// stands in. Estimates shape only dispatch order — never results, which
// merge by index.
var costModel sync.Map // "slug\x00policy" → *atomic.Uint64 (EWMA nanoseconds)

func costKey(j Job) string { return j.Scenario.Slug + "\x00" + j.PolicySpec }

func observeCost(j Job, d time.Duration) {
	if j.Scenario == nil {
		return
	}
	v, _ := costModel.LoadOrStore(costKey(j), new(atomic.Uint64))
	c := v.(*atomic.Uint64)
	for {
		old := c.Load()
		next := uint64(d)
		if old != 0 {
			next = old/2 + next/2
		}
		if c.CompareAndSwap(old, next) {
			return
		}
	}
}

func estimateCost(j Job) float64 {
	if j.Scenario == nil {
		return 0
	}
	if v, ok := costModel.Load(costKey(j)); ok {
		if ns := v.(*atomic.Uint64).Load(); ns > 0 {
			return float64(ns)
		}
	}
	// Static prior: a scenario's tmem capacity tracks its scale (bigger
	// pools mean bigger working sets mean more simulated ops); cluster
	// scenarios simulate several nodes, and no-tmem baselines pay the disk
	// for every refault. The units don't match observed nanoseconds — only
	// relative order matters, and both land in comparable magnitudes.
	c := float64(j.Scenario.TmemBytes)
	if c <= 0 {
		c = 1 << 30
	}
	if j.Scenario.IsCluster() {
		c *= 1.5
	}
	if j.PolicySpec == "no-tmem" {
		c *= 2
	}
	return c
}

// Matrix expands scenarios × policies × seeds into a job list in
// deterministic order: scenario-major, then policy, then seed. A nil
// policies slice selects each scenario's own policy list; a nil seeds
// slice selects DefaultSeeds. This ordering matches the historical
// sequential sweep loops, which keeps parallel aggregation byte-identical.
func Matrix(scenarios []*Scenario, policies []string, seeds []uint64) []Job {
	if seeds == nil {
		seeds = DefaultSeeds
	}
	var jobs []Job
	for _, s := range scenarios {
		pols := policies
		if pols == nil {
			pols = s.Policies
		}
		for _, pol := range pols {
			for _, seed := range seeds {
				jobs = append(jobs, Job{Scenario: s, PolicySpec: pol, Seed: seed})
			}
		}
	}
	return jobs
}

// Options configure a parallel experiment sweep (Times, SeriesSet,
// RunMatrix, RunTournament). The zero value runs with runtime.NumCPU()
// workers, the work-stealing scheduler, no cache, no cancellation and no
// progress output.
type Options struct {
	// Parallelism is the worker-pool size; <= 0 selects runtime.NumCPU().
	Parallelism int
	// Scheduler selects the dispatch strategy; see SchedulerMode.
	Scheduler SchedulerMode
	// Cache memoizes completed runs; see Engine.Cache.
	Cache *Memo
	// Context, when non-nil, cancels the sweep early.
	Context context.Context
	// OnProgress receives per-job completion callbacks (serialized).
	OnProgress func(done, total int, j Job)
	// OnEvent receives every lifecycle event of every run, tagged with
	// its job (serialized). See Engine.OnEvent.
	OnEvent func(j Job, e core.Event)
	// ClusterParallel selects per-run cluster parallelism; see
	// Engine.ClusterParallel.
	ClusterParallel ClusterParallelMode
}

func (o Options) engine() *Engine {
	return &Engine{
		Parallelism:     o.Parallelism,
		Scheduler:       o.Scheduler,
		Cache:           o.Cache,
		OnProgress:      o.OnProgress,
		OnEvent:         o.OnEvent,
		ClusterParallel: o.ClusterParallel,
	}
}

// RunMatrix executes every (scenario, policy, seed) combination on the
// worker pool and returns results in matrix order.
func RunMatrix(scenarios []*Scenario, policies []string, seeds []uint64, opt Options) ([]JobResult, error) {
	return opt.engine().Run(opt.Context, Matrix(scenarios, policies, seeds))
}

// runMatrixScalars is RunMatrix for aggregations that read no time series:
// cells served from the cache come back without Series.
func runMatrixScalars(scenarios []*Scenario, policies []string, seeds []uint64, opt Options) ([]JobResult, error) {
	e := opt.engine()
	e.scalarsOnly = true
	return e.Run(opt.Context, Matrix(scenarios, policies, seeds))
}
