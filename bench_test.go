// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §5 for the experiment index) plus ablations of the design
// choices DESIGN.md calls out. Absolute numbers are simulation-model units;
// the reported custom metrics carry the paper-comparable quantities
// (speedups between policies).
//
// Run a single figure with e.g.:
//
//	go test -bench 'BenchmarkFig5' -benchtime 1x .
package smartmem_test

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"smartmem"
	"smartmem/internal/core"
	"smartmem/internal/durable"
	"smartmem/internal/experiments"
	"smartmem/internal/mem"
	"smartmem/internal/policy"
	"smartmem/internal/sim"
	"smartmem/internal/tmem"
	"smartmem/internal/workload"
)

// benchSeeds keeps figure benches to one repetition per iteration; the
// full five-seed tables come from cmd/smartmem-report.
var benchSeeds = []uint64{11}

// runTimesFigure reruns a times figure once and reports mean runtimes per
// policy plus the headline speedup as custom metrics.
func runTimesFigure(b *testing.B, slug, smartSpec string) {
	b.Helper()
	scn, err := experiments.BySlug(slug)
	if err != nil {
		b.Fatal(err)
	}
	var tab *experiments.TimesTable
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Times(scn, nil, benchSeeds)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Mean across all VM×run rows per policy.
	meanOf := func(pol string) float64 {
		var sum float64
		var n int
		for _, row := range tab.Rows {
			if s, ok := row.ByPolicy[pol]; ok && s.N > 0 {
				sum += s.Mean
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	smart := meanOf(smartSpec)
	greedy := meanOf("greedy")
	noTmem := meanOf("no-tmem")
	if smart > 0 {
		b.ReportMetric((greedy-smart)/greedy*100, "%faster-than-greedy")
		b.ReportMetric((noTmem-smart)/noTmem*100, "%faster-than-no-tmem")
		b.ReportMetric(smart, "virt-s/smart-run")
	}
}

// runSeriesFigure reruns each series panel of a figure once.
func runSeriesFigure(b *testing.B, slug string, policies []string) {
	b.Helper()
	scn, err := experiments.BySlug(slug)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, pol := range policies {
			sr, err := experiments.Series(scn, pol, 11)
			if err != nil {
				b.Fatal(err)
			}
			if err := experiments.RenderSeries(io.Discard, sr); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figures 3–10 ---

func BenchmarkFig3_Scenario1Times(b *testing.B) {
	runTimesFigure(b, "s1", "smart-alloc:P=0.75")
}

func BenchmarkFig4_Scenario1Series(b *testing.B) {
	runSeriesFigure(b, "s1", []string{"greedy", "smart-alloc:P=0.75"})
}

func BenchmarkFig5_Scenario2Times(b *testing.B) {
	runTimesFigure(b, "s2", "smart-alloc:P=6")
}

func BenchmarkFig6_Scenario2Series(b *testing.B) {
	runSeriesFigure(b, "s2", []string{"greedy", "smart-alloc:P=6"})
}

func BenchmarkFig7_UsememTimes(b *testing.B) {
	runTimesFigure(b, "usemem", "smart-alloc:P=2")
}

func BenchmarkFig8_UsememSeries(b *testing.B) {
	runSeriesFigure(b, "usemem", []string{"greedy", "reconf-static", "smart-alloc:P=2"})
}

func BenchmarkFig9_Scenario3Times(b *testing.B) {
	runTimesFigure(b, "s3", "smart-alloc:P=4")
}

func BenchmarkFig10_Scenario3Series(b *testing.B) {
	runSeriesFigure(b, "s3", []string{"greedy", "static-alloc", "reconf-static", "smart-alloc:P=4"})
}

// --- Tables I–II ---

// BenchmarkTableI_StatisticsSampling measures the hypervisor's statistics
// sampling path (the 1 Hz VIRQ payload of Table I).
func BenchmarkTableI_StatisticsSampling(b *testing.B) {
	be := tmem.NewBackend(1<<18, tmem.NewMetaStore(4096))
	for vm := tmem.VMID(1); vm <= 8; vm++ {
		pool := be.NewPool(vm, tmem.Persistent)
		for i := 0; i < 128; i++ {
			be.Put(tmem.Key{Pool: pool, Object: 1, Index: tmem.PageIndex(i)}, nil)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := be.Sample(uint64(i))
		if ms.VMCount() != 8 {
			b.Fatal("lost VMs")
		}
	}
}

// BenchmarkTableII_ScenarioBuild measures scenario construction (config
// assembly for every Table II row).
func BenchmarkTableII_ScenarioBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range experiments.All() {
			if _, err := s.Build(uint64(i), "greedy"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablations (DESIGN.md §6) ---

// usememConfig builds a shortened usemem-style config for ablations.
func usememConfig(seed uint64, pol policy.Policy) core.Config {
	u := workload.Usemem{
		StartBytes: 128 * mem.MiB,
		StepBytes:  128 * mem.MiB,
		MaxBytes:   512 * mem.MiB,
		CPUPerPage: 100 * sim.Microsecond,
	}
	cfg := core.Config{
		PageSize:    64 * mem.KiB,
		TmemBytes:   384 * mem.MiB,
		TmemEnabled: true,
		Policy:      pol,
		Seed:        seed,
		Limit:       300 * sim.Second,
	}
	stop := &workload.Flag{}
	cfg.Stop = stop
	done := 0
	cfg.OnMilestone = func(vm, label string) {
		if label == workload.MilestoneLabel(512*mem.MiB) {
			done++
			if done >= 6 { // each VM reaches max twice
				stop.Set()
			}
		}
	}
	for i := 1; i <= 3; i++ {
		cfg.VMs = append(cfg.VMs, core.VMSpec{
			ID: tmem.VMID(i), Name: fmt.Sprintf("VM%d", i),
			RAMBytes: 512 * mem.MiB, KernelReserveBytes: 140 * mem.MiB,
			Workload: u,
		})
	}
	return cfg
}

// BenchmarkAblation_ExclusiveGet compares the Xen driver's exclusive
// frontswap gets (default) against swap-cache (non-exclusive) semantics.
// The workload is read-mostly: for write-heavy workloads (usemem) the two
// modes converge because every copy dies on the next write anyway, so the
// divergence only appears on read-dominated refault streams.
func BenchmarkAblation_ExclusiveGet(b *testing.B) {
	for _, bc := range []struct {
		name    string
		nonExcl bool
	}{{"exclusive", false}, {"non-exclusive", true}} {
		b.Run(bc.name, func(b *testing.B) {
			var end float64
			for i := 0; i < b.N; i++ {
				cfg := core.Config{
					PageSize:    64 * mem.KiB,
					TmemBytes:   256 * mem.MiB,
					TmemEnabled: true,
					Seed:        11,
					VMs: []core.VMSpec{{
						ID: 1, Name: "VM1", RAMBytes: 256 * mem.MiB,
						Workload: workload.GraphAnalytics{
							Label: "g", GraphBytes: 384 * mem.MiB,
							Iterations: 6, TouchesPerPagePerIter: 2,
							WriteFraction: 0.02,
						},
					}},
					NonExclusiveFrontswap: bc.nonExcl,
				}
				res, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				end = res.EndTime.Seconds()
			}
			b.ReportMetric(end, "virt-s")
		})
	}
}

// BenchmarkAblation_SamplingInterval sweeps the MM statistics interval
// around the paper's 1 s choice.
func BenchmarkAblation_SamplingInterval(b *testing.B) {
	for _, interval := range []sim.Duration{250 * sim.Millisecond, sim.Second, 4 * sim.Second} {
		b.Run(interval.Std().String(), func(b *testing.B) {
			var end float64
			for i := 0; i < b.N; i++ {
				cfg := usememConfig(11, policy.SmartAlloc{P: 2})
				cfg.SampleInterval = interval
				res, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				end = res.EndTime.Seconds()
			}
			b.ReportMetric(end, "virt-s")
		})
	}
}

// BenchmarkAblation_SmartThreshold sweeps smart-alloc's slack threshold
// (Algorithm 4's oscillation damper).
func BenchmarkAblation_SmartThreshold(b *testing.B) {
	for _, threshold := range []mem.Pages{16, 128, 1024} {
		b.Run(fmt.Sprintf("threshold-%d", threshold), func(b *testing.B) {
			var end float64
			for i := 0; i < b.N; i++ {
				cfg := usememConfig(11, policy.SmartAlloc{P: 2, Threshold: threshold})
				res, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				end = res.EndTime.Seconds()
			}
			b.ReportMetric(end, "virt-s")
		})
	}
}

// BenchmarkAblation_DiskLatency sweeps the backing-disk service time: as
// the disk gets faster, tmem management matters less (the crossover the
// paper's motivation rests on).
func BenchmarkAblation_DiskLatency(b *testing.B) {
	for _, svc := range []sim.Duration{200 * sim.Microsecond, 2 * sim.Millisecond, 8 * sim.Millisecond} {
		b.Run(svc.Std().String(), func(b *testing.B) {
			var gap float64
			for i := 0; i < b.N; i++ {
				run := func(pol policy.Policy, on bool) float64 {
					cfg := usememConfig(11, pol)
					cfg.TmemEnabled = on
					cfg.DiskReadService = svc
					cfg.DiskWriteService = svc
					res, err := core.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					return res.EndTime.Seconds()
				}
				withTmem := run(policy.SmartAlloc{P: 2}, true)
				noTmem := run(nil, false)
				gap = (noTmem - withTmem) / noTmem * 100
			}
			b.ReportMetric(gap, "%tmem-benefit")
		})
	}
}

// BenchmarkPublicAPI_RunScenario measures a full public-API scenario run
// (the unit of everything above).
func BenchmarkPublicAPI_RunScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := smartmem.RunScenario("usemem", "smart-alloc:P=2", 11); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Experiment engine ---

// BenchmarkEngine_TimesSweep measures a full times sweep (4 policies × 5
// seeds of the usemem scenario) at increasing parallelism. The sub-bench
// ratio is the engine's wall-clock speedup; outputs are identical across
// parallelism levels by construction.
func BenchmarkEngine_TimesSweep(b *testing.B) {
	scn, err := experiments.BySlug("usemem")
	if err != nil {
		b.Fatal(err)
	}
	policies := []string{"greedy", "static-alloc", "reconf-static", "smart-alloc:P=2"}
	levels := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		levels = append(levels, n)
	}
	for _, par := range levels {
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := experiments.TimesOpts(scn, policies, nil, experiments.Options{Parallelism: par})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngine_ScaleScenario measures engine throughput on the
// scale-<n> family as the VM count grows.
func BenchmarkEngine_ScaleScenario(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("vms-%d", n), func(b *testing.B) {
			scn, err := experiments.BySlug(fmt.Sprintf("scale-%d", n))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				results, err := experiments.RunMatrix([]*experiments.Scenario{scn},
					[]string{"greedy", "smart-alloc:P=2"}, benchSeeds, experiments.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != 2 {
					b.Fatalf("results = %d", len(results))
				}
			}
		})
	}
}

// BenchmarkSweep measures the tournament engine on a fixed bracket
// (scale-2 × 3 policies × 3 seeds): a cold sweep that computes every cell,
// and warm sweeps against a primed memo cache (every cell a hit — the
// warm/cold ratio is the cache's speedup, budgeted at >= 5x in practice and
// gated structurally by TestTournamentColdWarmIdentical).
func BenchmarkSweep(b *testing.B) {
	scn, err := experiments.BySlug("scale-2")
	if err != nil {
		b.Fatal(err)
	}
	scenarios := []*experiments.Scenario{scn}
	policies := []string{"greedy", "static-alloc", "smart-alloc:P=2"}
	seeds := []uint64{11, 23, 37}
	sweep := func(b *testing.B, opt experiments.Options) {
		league, err := experiments.RunTournament(scenarios, policies, seeds, opt)
		if err != nil {
			b.Fatal(err)
		}
		if league.Winner() == "" {
			b.Fatal("empty league")
		}
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(b, experiments.Options{})
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache := experiments.NewMemo(durable.NewMemStore())
		sweep(b, experiments.Options{Cache: cache}) // prime every cell
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep(b, experiments.Options{Cache: cache})
		}
		b.StopTimer()
		st := cache.Stats()
		if st.Misses != uint64(len(policies)*len(seeds)) {
			b.Fatalf("warm sweeps missed the cache: %+v", st)
		}
	})
}

// BenchmarkRunCluster measures the cluster runtime itself — one full
// cluster-2-shaped run per iteration, tiled to the requested node count,
// every node's kernel stepped in (time, node) order on one goroutine.
// Results are pinned against recorded digests in internal/experiments.
func BenchmarkRunCluster(b *testing.B) {
	scn, err := experiments.BySlug("cluster-2")
	if err != nil {
		b.Fatal(err)
	}
	build := func(nodes int) core.ClusterConfig {
		cc, err := scn.BuildCluster(benchSeeds[0], "smart-alloc:P=2")
		if err != nil {
			b.Fatal(err)
		}
		for len(cc.Nodes) < nodes {
			// Fresh BuildCluster per tile: every node pair keeps its own
			// stop flag and milestone counters.
			next, err := scn.BuildCluster(benchSeeds[0], "smart-alloc:P=2")
			if err != nil {
				b.Fatal(err)
			}
			cc.Nodes = append(cc.Nodes, next.Nodes...)
		}
		return cc
	}
	for _, nodes := range []int{2, 8} {
		b.Run(fmt.Sprintf("nodes-%d", nodes), func(b *testing.B) {
			var end sim.Time
			for i := 0; i < b.N; i++ {
				res, err := core.RunCluster(build(nodes))
				if err != nil {
					b.Fatal(err)
				}
				if res.HitLimit {
					b.Fatal("cluster run hit the virtual-time limit")
				}
				end = res.EndTime
			}
			b.ReportMetric(end.Seconds(), "virt-s")
		})
	}
}
