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

// Engine executes experiment jobs on a worker pool. The zero value is
// usable: it runs with runtime.NumCPU() workers, no cache and no progress
// reporting. Each job is an independent core.Run with its own simulation
// kernels and RNG streams, so jobs are race-free by construction (verified
// by go test -race).
//
// Workers take cells from one shared cursor over the jobs sorted
// longest-expected-first (scheduleOrder): whichever worker goes idle takes
// the longest cell still pending — the LPT rule — so long cells (no-tmem
// baselines, cluster scenarios) start early instead of straggling at the
// tail. Dispatch order changes wall-clock only; results merge by index.
type Engine struct {
	// Parallelism is the number of concurrent workers; values <= 0 select
	// runtime.NumCPU(). Parallelism 1 reproduces the historical sequential
	// behaviour exactly: jobs run in submission order.
	Parallelism int
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

	// scalarsOnly makes cache hits fetch the cell's scalar record alone
	// (Result.Series nil). Set by the entry points whose aggregation reads
	// no series — RunTournament, TimesOpts — and by nothing else: those
	// never hand a JobResult to their caller.
	scalarsOnly bool
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
//
// With a cache, a run has two phases. Recall fingerprints every job and
// serves what the sweep's pack holds in one read; the run phase takes the
// cells left over, each of which is read from its own record or simulated.
// A run in which every cell ended with a stored record, not all of them
// from the pack, then writes the pack, so the next run of the same sweep is
// one read.
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
		engine:  e,
		ctx:     ctx,
		cancel:  cancel,
		jobs:    jobs,
		results: results,
		jobIdx:  len(jobs),
	}
	pending := st.recall()

	workers := e.workers(len(pending))
	// One worker keeps submission order (tests and callers rely on
	// Parallelism 1 meaning "the old sequential loop").
	order := pending
	if workers > 1 {
		order = scheduleOrder(jobs, pending)
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc scratch
			// Fail-fast / cancellation stops dispatch; cells already taken
			// finish.
			for st.ctx.Err() == nil {
				k := int(cursor.Add(1) - 1)
				if k >= len(order) {
					return
				}
				st.execute(order[k], &sc)
			}
		}()
	}
	wg.Wait()
	st.storePack()

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
	engine  *Engine
	ctx     context.Context
	cancel  context.CancelFunc
	jobs    []Job
	results []JobResult

	// With a cache: every job's fingerprint (fpOK false where the job has
	// none) and, when all have one, the sweep's pack key, the scalar record
	// each cell ended with (nil until it has one) and how many came from
	// the pack. Workers write recs at their own index only.
	fps      []Fingerprint
	fpOK     []bool
	pack     string
	recs     [][]byte
	fromPack int

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

// recall is the run's first phase: it fingerprints every job and serves
// what the sweep's pack holds. It returns the indexes left for the run
// phase, in job order.
func (st *sweepState) recall() []int {
	e := st.engine
	if e.Cache != nil && e.OnEvent == nil {
		st.fps = make([]Fingerprint, len(st.jobs))
		st.fpOK = make([]bool, len(st.jobs))
		packable := true
		for i, job := range st.jobs {
			// Unfingerprintable jobs (a Build error) fail identically on
			// the real run; they just skip the cache, and the sweep has no
			// pack.
			fp, err := jobFingerprint(job)
			st.fps[i], st.fpOK[i] = fp, err == nil
			packable = packable && err == nil
		}
		if packable {
			st.pack = packKey(st.fps)
			var served []*core.Result
			served, st.recs = e.Cache.recall(st.pack, st.fps, !e.scalarsOnly)
			var pending []int
			for i, res := range served {
				if res == nil {
					pending = append(pending, i)
					continue
				}
				st.results[i] = JobResult{Job: st.jobs[i], Index: i, Result: res}
				st.fromPack++
				st.finish(i, nil)
			}
			return pending
		}
	}
	pending := make([]int, len(st.jobs))
	for i := range pending {
		pending[i] = i
	}
	return pending
}

// storePack writes the sweep's pack once every cell has a stored record,
// unless the pack already served them all. A cancelled or failed run, or a
// cell whose store failed, leaves a gap and writes none.
func (st *sweepState) storePack() {
	if st.recs == nil || st.fromPack == len(st.jobs) {
		return
	}
	for _, rec := range st.recs {
		if rec == nil {
			return
		}
	}
	_ = st.engine.Cache.putPack(st.pack, st.recs) // best-effort; the Memo counts a failure
}

// execute runs (or recalls from cache) the job at idx and records its
// outcome.
func (st *sweepState) execute(idx int, sc *scratch) {
	e := st.engine
	job := st.jobs[idx]
	jr := JobResult{Job: job, Index: idx}

	useCache := st.fps != nil && st.fpOK[idx]
	var rec []byte
	cached := false
	if useCache {
		jr.Result, rec, cached = e.Cache.lookup(st.fps[idx], !e.scalarsOnly)
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
		jr.Result, jr.Err = RunOneWith(job.Scenario, job.PolicySpec, job.Seed, obs)
		if jr.Err == nil {
			observeCost(job, time.Since(start))
			// Only complete, successful runs are cached: errors and
			// HitLimit runs never produce an entry, and the store's Put is
			// atomic (temp file + rename), so a cancelled sweep can cut the
			// job list short but never leaves a partial entry behind. Cache
			// writes are best-effort — a full disk must not fail the sweep
			// (the Memo counts the failure).
			if useCache && !jr.Result.Cancelled {
				if rec, _ = e.Cache.put(st.fps[idx], jr.Result, &sc.enc); rec != nil && st.recs != nil {
					rec = append([]byte(nil), rec...) // sc.enc is reused by the next job
				}
			}
		}
	}
	st.results[idx] = jr
	if st.recs != nil {
		st.recs[idx] = rec
	}
	st.finish(idx, jr.Err)
}

// finish counts the job at idx as done. It is the one place progress and
// fail-fast state are updated.
func (st *sweepState) finish(idx int, err error) {
	e := st.engine
	st.mu.Lock()
	st.done++
	if err != nil {
		if idx < st.jobIdx {
			st.jobErr, st.jobIdx = err, idx
		}
		st.cancel() // fail fast: stop dispatching further jobs
	}
	if e.OnProgress != nil {
		e.OnProgress(st.done, len(st.jobs), st.jobs[idx])
	}
	st.mu.Unlock()
}

// scheduleOrder sorts the job indexes idx longest-expected-first, in place
// (deterministically: ties keep their order), and returns them.
func scheduleOrder(jobs []Job, idx []int) []int {
	costs := make([]float64, len(jobs))
	for _, i := range idx {
		costs[i] = estimateCost(jobs[i])
	}
	sort.SliceStable(idx, func(a, b int) bool { return costs[idx[a]] > costs[idx[b]] })
	return idx
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
// workers, no cache, no cancellation and no progress output.
type Options struct {
	// Parallelism is the worker-pool size; <= 0 selects runtime.NumCPU().
	Parallelism int
	// Cache memoizes completed runs; see Engine.Cache.
	Cache *Memo
	// Context, when non-nil, cancels the sweep early.
	Context context.Context
	// OnProgress receives per-job completion callbacks (serialized).
	OnProgress func(done, total int, j Job)
	// OnEvent receives every lifecycle event of every run, tagged with
	// its job (serialized). See Engine.OnEvent.
	OnEvent func(j Job, e core.Event)
}

func (o Options) engine() *Engine {
	return &Engine{
		Parallelism: o.Parallelism,
		Cache:       o.Cache,
		OnProgress:  o.OnProgress,
		OnEvent:     o.OnEvent,
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
