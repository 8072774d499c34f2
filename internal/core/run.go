package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"smartmem/internal/metrics"
	"smartmem/internal/sim"
	"smartmem/internal/tmem"
)

// Run executes one full node simulation to completion and returns its
// results. It is a convenience wrapper over RunWith with a background
// context and no observer.
func Run(cfg Config) (*Result, error) {
	return RunWith(context.Background(), cfg, nil)
}

// RunWith executes one full node simulation, streaming lifecycle events to
// obs (which may be nil) and honouring ctx cancellation. On cancellation it
// returns promptly with the context's error AND a non-nil partial Result
// (Result.Cancelled set): everything measured up to the cancellation
// point. A nil ctx means context.Background().
func RunWith(ctx context.Context, cfg Config, obs Observer) (*Result, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	return run(ctx, []Config{cfg}, false, false, false, obs)
}

// run is the one run body: RunWith is its one-node, untagged case and
// RunClusterWith its N-node case. It assembles the nodes (tagged "n<i>"
// when tagged; ring-wired when remote), drives one kernel per node — on
// the calling goroutine, or one goroutine each when parallel — and
// finalizes the merged Result. cfgs are normalized.
//
// Every node gets its own kernel and Result shard, and all nodes split
// their random streams from one root seeded by node 0, in node order,
// before any event runs. Only the drive step differs between the drivers,
// and both order every cross-node interaction by (virtual time, node
// index).
func run(ctx context.Context, cfgs []Config, tagged, remote, parallel bool, obs Observer) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	nn := len(cfgs)
	parallel = parallel && nn > 1

	// --- assemble ---
	nodes := make([]*nodeRuntime, nn)
	for i, cfg := range cfgs {
		tag := ""
		if tagged {
			tag = fmt.Sprintf("n%d", i)
		}
		n, err := newNodeRuntime(cfg, tag)
		if err != nil {
			return nil, err
		}
		nodes[i] = n
	}
	var loops []*tmem.Loopback
	if remote && nn > 1 {
		loops = wireRing(nodes)
	}

	// Every kernel stops at the largest node limit.
	var limit sim.Duration
	for _, cfg := range cfgs {
		limit = max(limit, cfg.Limit)
	}
	if parallel && obs != nil {
		obs = &lockedObserver{obs: obs}
	}
	cancelled := cancelHook(ctx)
	rootRNG := sim.NewRNG(cfgs[0].Seed)
	kerns := make([]*sim.Kernel, nn)
	shards := make([]*Result, nn)
	for i, n := range nodes {
		kerns[i] = sim.NewKernel(cfgs[0].Seed)
		kerns[i].SetLimit(sim.Time(limit))
		shards[i] = &Result{Series: metrics.NewSet()}
		n.start(kerns[i], rootRNG, obs, shards[i], cancelled)
	}

	// --- drive ---
	if parallel {
		driveParallel(ctx, kerns, nodes, loops, shards)
	} else {
		driveStepping(ctx, kerns, shards)
	}
	for i, kern := range kerns {
		sh := shards[i]
		sh.HitLimit = kern.Ended()
		if sh.HitLimit || sh.Cancelled {
			sh.EndTime = max(sh.EndTime, kern.Now())
		}
		kern.KillAll()
	}

	// --- finalize ---
	res := &Result{
		PolicyName: clusterPolicyName(cfgs),
		Seed:       cfgs[0].Seed,
		Series:     mergeShardSeries(shards),
	}
	for _, sh := range shards {
		res.Runs = append(res.Runs, sh.Runs...)
		res.EndTime = max(res.EndTime, sh.EndTime)
		res.HitLimit = res.HitLimit || sh.HitLimit
		res.Cancelled = res.Cancelled || sh.Cancelled
	}
	var errs []error
	for _, n := range nodes {
		if err := n.finalize(res); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	sortRuns(res.Runs)
	if obs != nil {
		obs.OnEvent(RunFinished{At: res.EndTime, Cancelled: res.Cancelled, Result: res})
	}
	if res.Cancelled {
		return res, context.Cause(ctx)
	}
	return res, nil
}

// cancelHook returns the cancellation poll workloads use, or nil for
// non-cancellable contexts so the common path costs nothing.
func cancelHook(ctx context.Context) func() bool {
	if ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// driveStepping runs every kernel on the calling goroutine, always stepping
// the one whose next event is earliest by (time, node index) — the order
// the cluster's old single shared kernel ran events in, pinned by recorded
// digests (DESIGN §13). Head times are exact here: the only stale queue
// entries a kernel holds come from Kill, which runs after the drive.
//
// The stepped kernel's processes may run ahead to the earliest head among
// the other kernels, a lower-indexed one's counting one nanosecond earlier
// because its same-time events come first: exactly the times at which this
// kernel would be picked again. The same pass that finds the earliest head
// finds that horizon. When a new earliest head turns up, every kernel seen
// so far has a lower index and a head no earlier than the old earliest, so
// the horizon restarts from that head minus one; later kernels count as
// they are. Stepping never moves another kernel's head — cross-node calls
// schedule nothing in the callee's queue — so the horizon holds for the
// whole step.
//
// The context is checked between steps; a workload that runs ahead polls
// it itself through workload.Ctx.Stopped, so cancellation stays prompt even
// while every workload is deep inside a long phase. With a background
// context the check never fires.
func driveStepping(ctx context.Context, kerns []*sim.Kernel, shards []*Result) {
	for {
		next, at, horizon := -1, sim.Time(0), sim.MaxTime
		for i, kern := range kerns {
			t, ok := kern.PeekTime()
			switch {
			case !ok:
			case next < 0:
				next, at = i, t
			case t < at:
				next, at, horizon = i, t, at-1
			default:
				horizon = min(horizon, t)
			}
		}
		// A head past the limit is the earliest of all: the run is over.
		if next < 0 || !kerns[next].StepWithin(horizon) {
			return
		}
		if ctx.Err() != nil {
			shards[next].Cancelled = true
			return
		}
	}
}

// mergeShardSeries folds the per-node series shards into one set in the
// order a single shared recorder would have created them: by first-sample
// time, node index, then within-node insertion order. Series names are
// node-unique (every name carries its node prefix — a node's outbound
// remote-guest series lives in the *serving* peer's shard under the
// sender's prefix), so the merge is pure concatenation.
func mergeShardSeries(shards []*Result) *metrics.Set {
	type entry struct {
		node, pos int
		s         *metrics.Series
		firstT    float64
	}
	var all []entry
	for i, sh := range shards {
		for pos, name := range sh.Series.Names() {
			s := sh.Series.Get(name)
			e := entry{node: i, pos: pos, s: s, firstT: math.Inf(1)}
			if s.Len() > 0 {
				e.firstT = s.At(0).T
			}
			all = append(all, e)
		}
	}
	sort.Slice(all, func(a, b int) bool {
		ea, eb := all[a], all[b]
		if ea.firstT != eb.firstT {
			return ea.firstT < eb.firstT
		}
		if ea.node != eb.node {
			return ea.node < eb.node
		}
		return ea.pos < eb.pos
	})
	dst := metrics.NewSet()
	for _, e := range all {
		if err := dst.AddSeries(e.s.Name(), e.s.Points()); err != nil {
			panic(err) // names are node-unique and samples time-ordered
		}
	}
	return dst
}
