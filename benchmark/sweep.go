package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"smartmem/internal/core"
	"smartmem/internal/experiments"
)

// sweepSpec is one tournament workload.
type sweepSpec struct {
	name     string
	slugs    []string
	policies []string // nil = the union of the scenarios' own lists
	// secondsPerSeed sizes the sweep: the run uses seconds / secondsPerSeed
	// seeds. A constant, so two commits sweep the same cells.
	secondsPerSeed float64
	// coldPasses is how many times the cold tournament is run; its time is
	// the fastest pass's. Host interference only ever adds time, so the
	// fastest pass is the one least disturbed.
	coldPasses int
}

// The tournament is rerun against the memo in blocks of warmBlock reruns:
// one block after set-up and one after every cold pass, 1200 reruns in all
// with three cold passes. The host's speed drifts by a tenth over five to ten
// seconds (README, "How the numbers are made steady"); one block of reruns at
// the end of the run sat wholly inside one such stretch, blocks spread over
// the whole run do not. The reruns are reduced like the open-loop latencies
// (see latencyWindows), in windows of warmWindow consecutive reruns: enough
// for ten samples beyond the reported p80. A block is a whole number of
// windows.
const (
	warmBlock  = 300
	warmWindow = 50
	warmTailQ  = 0.80
)

// seedsFor derives the sweep's simulation seeds from the run seed.
func seedsFor(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = 1 + mix(uint32(seed), uint32(i))%1_000_000
	}
	return out
}

// sweepInputs is a sweep's resolved cell matrix.
type sweepInputs struct {
	scenarios []*experiments.Scenario
	policies  []string
	seeds     []uint64
	jobs      []experiments.Job
}

func resolveSweep(spec sweepSpec, seed uint64, seconds float64) (sweepInputs, error) {
	var in sweepInputs
	for _, slug := range spec.slugs {
		s, err := experiments.BySlug(slug)
		if err != nil {
			return in, err
		}
		in.scenarios = append(in.scenarios, s)
	}
	in.policies = spec.policies
	if in.policies == nil {
		seen := map[string]bool{}
		for _, s := range in.scenarios {
			for _, p := range s.Policies {
				if !seen[p] {
					seen[p] = true
					in.policies = append(in.policies, p)
				}
			}
		}
	}
	in.seeds = seedsFor(seed, max(1, int(math.Round(seconds/spec.secondsPerSeed))))
	in.jobs = experiments.Matrix(in.scenarios, in.policies, in.seeds)
	return in, nil
}

func (in sweepInputs) tournament(memo *experiments.Memo) (*experiments.LeagueTable, []byte, error) {
	league, err := experiments.RunTournament(in.scenarios, in.policies, in.seeds,
		experiments.Options{Parallelism: workers, Cache: memo})
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := experiments.WriteLeagueJSON(&buf, league); err != nil {
		return nil, nil, err
	}
	return league, buf.Bytes(), nil
}

// resultDigest hashes every deterministic field of a run's result.
func resultDigest(res *core.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "policy=%s seed=%d end=%d hitlimit=%v ticks=%d batches=%d diskops=%d diskbusy=%d\n",
		res.PolicyName, res.Seed, res.EndTime, res.HitLimit, res.SampleTicks, res.MMBatchesSent, res.DiskOps, res.DiskBusy)
	for _, r := range res.Runs {
		fmt.Fprintf(h, "run %+v\n", r)
	}
	for _, v := range res.VMs {
		fmt.Fprintf(h, "vm %+v\n", v)
	}
	for _, n := range res.Nodes {
		fmt.Fprintf(h, "node %s %s %d %d %d %d", n.Name, n.PolicyName, n.SampleTicks, n.MMBatchesSent, n.DiskOps, n.DiskBusy)
		if n.Remote != nil {
			fmt.Fprintf(h, " remote=%+v", *n.Remote)
		}
		if n.Compressed != nil {
			fmt.Fprintf(h, " compressed=%+v", *n.Compressed)
		}
		if n.Durable != nil {
			fmt.Fprintf(h, " durable=%+v", *n.Durable)
		}
		fmt.Fprintln(h)
	}
	if res.Compressed != nil {
		fmt.Fprintf(h, "compressed=%+v\n", *res.Compressed)
	}
	if res.Durable != nil {
		fmt.Fprintf(h, "durable=%+v\n", *res.Durable)
	}
	if res.Series != nil {
		res.Series.WriteCSV(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runCell runs one cell outside the engine. hook, when set, may rewrite the
// node configurations before the run (the traced run's decorators).
func runCell(job experiments.Job, parallel bool, obs core.Observer, hook func(*core.Config)) (*core.Result, error) {
	if job.Scenario.IsCluster() {
		cc, err := job.Scenario.BuildCluster(job.Seed, job.PolicySpec)
		if err != nil {
			return nil, err
		}
		cc.Parallel = parallel
		if hook != nil {
			for i := range cc.Nodes {
				hook(&cc.Nodes[i])
			}
		}
		return core.RunClusterWith(nil, cc, obs)
	}
	cfg, err := job.Scenario.Build(job.Seed, job.PolicySpec)
	if err != nil {
		return nil, err
	}
	if hook != nil {
		hook(&cfg)
	}
	return core.RunWith(nil, cfg, obs)
}

// gateJob picks the cell the determinism checks run: any would do, and
// static-alloc cells are among the shortest of every scenario.
func gateJob(in sweepInputs, cluster bool) (experiments.Job, bool) {
	for _, j := range in.jobs {
		if j.Scenario.IsCluster() == cluster && j.PolicySpec == "static-alloc" {
			return j, true
		}
	}
	return experiments.Job{}, false
}

// runSweep runs one tournament workload.
func runSweep(spec sweepSpec, seed uint64, seconds float64, traced bool, scratch string) (*result, error) {
	res := newResult()

	// --- set-up: resolve the matrix, populate the memo with one cold pass ---
	// Once, although set-up time is steadier as the median of several: a
	// pass is five seconds, and the suite's 92 runs have a time cap.
	start := time.Now()
	in, err := resolveSweep(spec, seed, seconds)
	if err != nil {
		return nil, err
	}
	memoDir := filepath.Join(scratch, "memo")
	memo, err := experiments.OpenDirMemo(memoDir)
	if err != nil {
		return nil, err
	}
	resetPeakRSS()
	_, setupJSON, err := in.tournament(memo)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", time.Since(start).Seconds())
	peaks := []float64{peakRSSMiB()}
	cells := len(in.jobs)
	res.note("%s: %d scenarios x %d policies x %d seeds = %d cells, %d workers; memo %d bytes",
		spec.name, len(in.scenarios), len(in.policies), len(in.seeds), cells, workers, dirBytes(memoDir))

	// --- warm reruns against the memo, in blocks between the cold passes ---
	warm := newLatencyWindows(warmWindow, int64(warmBlock*(spec.coldPasses+1)))
	reruns := 0
	rerunBlock := func() error {
		for end := reruns + warmBlock; reruns < end; reruns++ {
			start := time.Now()
			_, warmJSON, err := in.tournament(memo)
			if err != nil {
				return err
			}
			warm.Add(int64(reruns), int64(time.Since(start)))
			res.attempted += int64(cells)
			if !bytes.Equal(warmJSON, setupJSON) {
				res.failed += int64(cells)
				res.gate("warm rerun %d: league differs from the memo-filling pass", reruns)
			}
		}
		return nil
	}
	if err := rerunBlock(); err != nil {
		return nil, err
	}

	// --- cold tournament, no memo ---
	var league *experiments.LeagueTable
	passes := make([]float64, spec.coldPasses)
	for i := range passes {
		resetPeakRSS()
		start = time.Now()
		var coldJSON []byte
		if league, coldJSON, err = in.tournament(nil); err != nil {
			return nil, err
		}
		passes[i] = time.Since(start).Seconds()
		peaks = append(peaks, peakRSSMiB())
		res.attempted += int64(cells)
		if !bytes.Equal(setupJSON, coldJSON) {
			res.failed += int64(cells)
			res.gate("cold pass %d: league differs from the memo-filling pass", i)
		}
		if err := rerunBlock(); err != nil {
			return nil, err
		}
	}
	cold := time.Duration(slices.Min(passes) * float64(time.Second))
	// Work is counted in simulated page touches, not cells: how long a cell
	// runs depends heavily on its seed (scale-16 under greedy: 0.4 to 1.9 s),
	// how long a touch takes to simulate hardly does.
	counts, err := in.countsFromMemo(memo)
	if err != nil {
		return nil, err
	}
	res.set("throughput_per_s", float64(counts.touches)/cold.Seconds())
	res.note("cold tournament: %.3f s each, fastest %.3f s: %.2f cells/s, %.0f simulated touches/s",
		passes, cold.Seconds(), float64(cells)/cold.Seconds(), float64(counts.touches)/cold.Seconds())

	if st := memo.Stats(); st.Hits != uint64(cells*(reruns+1)) || st.Corrupt != 0 || st.WriteErrs != 0 {
		res.gate("memo: %d hits (want %d), %d corrupt, %d write errors", st.Hits, cells*(reruns+1), st.Corrupt, st.WriteErrs)
	}
	ws := warm.Reduce(warmTailQ, math.MaxInt64)
	if ws.Windows == 0 {
		return nil, fmt.Errorf("benchmark: %s: no window of %d reruns supports a p%g", spec.name, warmWindow, 100*warmTailQ)
	}
	res.set("latency_p50_us", ws.P50/1e3)
	if traced {
		res.layer("experiments.warm_tail_us", ws.Tail/1e3)
	}
	res.note("warm rerun: p50 %.2f ms, p%g %.2f ms (quiet level over %d windows of %d reruns, in %d blocks of %d); slowest %.2f ms",
		ws.P50/1e6, 100*warmTailQ, ws.Tail/1e6, ws.Windows, warmWindow, spec.coldPasses+1, warmBlock, float64(ws.Max)/1e6)

	// --- determinism gates ---
	if job, ok := gateJob(in, false); ok {
		a, errA := runCell(job, false, nil, nil)
		b, errB := runCell(job, false, nil, nil)
		res.attempted += 2
		if errA != nil || errB != nil || resultDigest(a) != resultDigest(b) {
			res.failed++
			res.gate("%v: two runs of one cell differ (%v, %v)", job, errA, errB)
		}
	}
	if job, ok := gateJob(in, true); ok {
		seq, errA := runCell(job, false, nil, nil)
		par, errB := runCell(job, true, nil, nil)
		res.attempted += 2
		if errA != nil || errB != nil || resultDigest(seq) != resultDigest(par) {
			res.failed++
			res.gate("%v: parallel cluster run differs from sequential (%v, %v)", job, errA, errB)
		}
	}
	res.note("smart-alloc gain over greedy (simulated time): %.4f %%", smartAllocGain(league))

	if traced {
		if err := sweepLayersOf(res, spec, in, league, counts, memo, memoDir, cold, scratch); err != nil {
			return nil, err
		}
	}
	// The median over the passes of each pass's own high-water mark: a
	// single maximum over the whole run depends on which two large cells
	// happened to overlap once.
	res.set("peak_rss_mb", quantile(sortedCopy(peaks), 0.5))
	return res, nil
}

// countsFromMemo sums the deterministic counters of every cell's result, read
// back from the memo the set-up pass filled.
func (in sweepInputs) countsFromMemo(memo *experiments.Memo) (sweepCounts, error) {
	var c sweepCounts
	for _, job := range in.jobs {
		fp, err := experiments.JobFingerprint(job)
		if err != nil {
			return c, err
		}
		r, ok := memo.Get(fp)
		if !ok {
			return c, fmt.Errorf("benchmark: %v is not in the memo", job)
		}
		c.add(r)
	}
	return c, nil
}

// smartAllocGain is the paper's claim in simulated time: the mean over the
// scenarios of (greedy − best smart-alloc spec) / greedy on the league's
// mean virtual seconds, in percent. Scenarios lacking either side are
// skipped.
func smartAllocGain(league *experiments.LeagueTable) float64 {
	var sum float64
	var n int
	for _, sl := range league.PerScenario {
		var greedy, best float64
		for _, e := range sl.Entries {
			switch {
			case e.Policy == "greedy":
				greedy = e.MeanVirtSeconds
			case len(e.Policy) >= 11 && e.Policy[:11] == "smart-alloc":
				if best == 0 || e.MeanVirtSeconds < best {
					best = e.MeanVirtSeconds
				}
			}
		}
		if greedy > 0 && best > 0 {
			sum += (greedy - best) / greedy
			n++
		}
	}
	return 100 * ratio(sum, float64(n))
}

// sweepLayersOf is the traced run: the same tournament under a CPU profile,
// the memo'd results read back for the exact counts, and one seed's cells
// run singly with decorators for spans and per-cell times.
func sweepLayersOf(res *result, spec sweepSpec, in sweepInputs, league *experiments.LeagueTable, c sweepCounts, memo *experiments.Memo, memoDir string, cold time.Duration, scratch string) error {
	cells := len(in.jobs)

	// --- the tournament again, profiled ---
	var prof bytes.Buffer
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	gc0 := gc[0].Value.Float64()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	start := time.Now()
	_, _, err := in.tournament(nil)
	profiled := time.Since(start)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	metrics.Read(gc)
	res.attempted += int64(cells)

	byPkg, total, err := cpuByPackage(prof.Bytes())
	if err != nil {
		return err
	}
	byLayer := cpuByLayer(byPkg)
	for _, l := range append(sweepLayers, "runtime", "other") {
		res.layer(l+".cpu_s", byLayer[l])
	}
	res.layer("profile.cpu_s", total)
	// Were the workers busy: sampled CPU time over what they had. The tail
	// of a sweep, when one long cell is left, shows as the shortfall.
	res.layer("experiments.sched_efficiency", ratio(total, workers*profiled.Seconds()))
	res.layer("runtime.gc_cpu_s", gc[0].Value.Float64()-gc0)
	res.layer("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	res.layer("runtime.gc_pause_ms_total", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	res.layer("experiments.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	res.layer("experiments.mallocs_per_cell", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(cells)))
	res.layer("trace.overhead_pct", 100*ratio(profiled.Seconds()-cold.Seconds(), cold.Seconds()))
	res.note("profiled tournament: %.3f s, %.3f CPU-s sampled; by package:", profiled.Seconds(), total)
	pkgs := make([]string, 0, len(byPkg))
	for pkg := range byPkg {
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return byPkg[pkgs[i]] > byPkg[pkgs[j]] })
	for _, pkg := range pkgs[:min(12, len(pkgs))] {
		res.note("  %6.2f s  %4.1f %%  %s (%s)", byPkg[pkg], 100*byPkg[pkg]/total, pkg, layerOf(pkg))
	}

	// --- what a memo read and write cost per cell ---
	memo2, err := experiments.OpenDirMemo(filepath.Join(scratch, "memo2"))
	if err != nil {
		return err
	}
	var getNs, putNs time.Duration
	for _, job := range in.jobs {
		fp, err := experiments.JobFingerprint(job)
		if err != nil {
			return err
		}
		start := time.Now()
		r, ok := memo.Get(fp)
		getNs += time.Since(start)
		if !ok {
			return fmt.Errorf("benchmark: %v is not in the memo", job)
		}
		start = time.Now()
		if err := memo2.Put(fp, r); err != nil {
			return err
		}
		putNs += time.Since(start)
	}
	res.layer("experiments.memo_get_us_per_cell", usPer(int64(getNs), int64(cells)))
	res.layer("experiments.memo_put_us_per_cell", usPer(int64(putNs), int64(cells)))
	res.layer("experiments.memo_bytes_per_cell", ratio(float64(dirBytes(memoDir)), float64(cells)))
	c.report(res)
	res.layer("sim.ns_per_touch", ratio(total*1e9, float64(c.touches)))
	res.layer("paper.smart_alloc_gain_pct", smartAllocGain(league))

	// --- one seed's cells, singly, decorated ---
	tr := NewTracer()
	pr := newProbes(tr, append(blobBoundaries, "policy.targets", "observer.event")...)
	tr.Record(true)
	root := tr.Begin("tournament", 0)
	cellMs := map[string][]float64{}
	var parOverSeq []float64
	for _, job := range in.jobs {
		if job.Seed != in.seeds[0] {
			continue
		}
		obs := &observerDecor{p: pr.probe("observer.event")}
		hook := func(cfg *core.Config) {
			if cfg.Policy != nil && cfg.TmemEnabled {
				cfg.Policy = &policyDecor{inner: cfg.Policy, p: pr.probe("policy.targets")}
			}
			if cfg.DurableBlob != nil {
				cfg.DurableBlob = decorateBlob(cfg.DurableBlob, pr, false)
			}
		}
		// Plain first, for the cell's own time; then decorated, for spans
		// and the policy's share. The decorators must not change the result.
		start := time.Now()
		plain, err := runCell(job, false, nil, nil)
		d := time.Since(start)
		if err != nil {
			return err
		}
		cellMs[job.Scenario.Slug] = append(cellMs[job.Scenario.Slug], float64(d)/1e6)
		idx := tr.Begin("cell "+job.String(), 0)
		decorated, err := runCell(job, false, obs, hook)
		tr.End(idx)
		res.attempted += 2
		if err != nil || resultDigest(decorated) != resultDigest(plain) {
			res.failed++
			res.gate("%v: decorated run differs from plain (%v)", job, err)
		}
		if job.Scenario.IsCluster() {
			// Spans need one logical thread; the parallel runtime is timed
			// without them.
			tr.Record(false)
			start = time.Now()
			par, err := runCell(job, true, nil, nil)
			parOverSeq = append(parOverSeq, ratio(float64(time.Since(start)), float64(d)))
			tr.Record(true)
			res.attempted++
			if err != nil || resultDigest(par) != resultDigest(plain) {
				res.failed++
				res.gate("%v: parallel cluster run differs from sequential (%v)", job, err)
			}
		}
	}
	tr.End(root)
	tr.Record(false)
	for _, slug := range allSlugs {
		res.layer("experiments.cell_ms."+slug, quantile(sortedCopy(cellMs[slug]), 0.5))
	}
	calls, _, ns := pr.sum("policy.targets")
	res.layer("policy.targets_us_per_tick", usPer(ns, calls))
	res.layer("core.cluster_par_over_seq", quantile(sortedCopy(parOverSeq), 0.5))
	return WriteSpans(spanPath(spec.name), spec.name, tr.Spans())
}

// sweepCounts sums the deterministic counters of a sweep's results.
type sweepCounts struct {
	touches, evictions, diskOps, ticks, batches uint64
	puts, putsOK, gets, getsHit, flushes        uint64
	remotePuts, remoteGets, remoteHits          uint64
	compPuts, compRaw, compStored               uint64
	walBytes                                    uint64
}

func (c *sweepCounts) add(r *core.Result) {
	for _, vm := range r.VMs {
		c.touches += vm.Kernel.Touches
		c.evictions += vm.Kernel.Evictions
		c.puts += vm.Tmem.PutsTotal
		c.putsOK += vm.Tmem.PutsSucc
		c.gets += vm.Tmem.GetsTotal
		c.getsHit += vm.Tmem.GetsHit
		c.flushes += vm.Tmem.Flushes
	}
	c.diskOps += r.DiskOps
	c.ticks += r.SampleTicks
	c.batches += r.MMBatchesSent
	for _, n := range r.Nodes {
		if n.Remote != nil {
			c.remotePuts += n.Remote.Puts
			c.remoteGets += n.Remote.Gets
			c.remoteHits += n.Remote.GetsHit
		}
	}
	if r.Compressed != nil {
		c.compPuts += r.Compressed.Puts
		c.compRaw += uint64(r.Compressed.RawBytes)
		c.compStored += uint64(r.Compressed.StoredBytes)
	}
	if r.Durable != nil {
		c.walBytes += r.Durable.Log.AppendedBytes
	}
}

func (c *sweepCounts) report(res *result) {
	res.layer("guest.touches", float64(c.touches))
	res.layer("guest.evictions", float64(c.evictions))
	res.layer("tmem.ops", float64(c.puts+c.gets+c.flushes))
	res.layer("tmem.put_accept_ratio", ratio(float64(c.putsOK), float64(c.puts)))
	res.layer("tmem.get_hit_ratio", ratio(float64(c.getsHit), float64(c.gets)))
	res.layer("vdisk.disk_ops", float64(c.diskOps))
	res.layer("policy.ticks", float64(c.ticks))
	res.layer("tkm.batches_sent", float64(c.batches))
	res.layer("tmem.remote.puts", float64(c.remotePuts))
	res.layer("tmem.remote.get_hit_ratio", ratio(float64(c.remoteHits), float64(c.remoteGets)))
	res.layer("tmem.compressed.puts", float64(c.compPuts))
	res.layer("tmem.compressed.ratio", ratio(float64(c.compRaw), float64(c.compStored)))
	res.layer("durable.wal_bytes", float64(c.walBytes))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
