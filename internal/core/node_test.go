package core

import (
	"strings"
	"testing"

	"smartmem/internal/mem"
	"smartmem/internal/policy"
	"smartmem/internal/sim"
	"smartmem/internal/workload"
)

// smallScenario returns a quick two-VM config with real memory pressure.
func smallScenario(seed uint64, pol policy.Policy, tmemOn bool) Config {
	mk := func(label string) workload.Workload {
		return workload.InMemoryAnalytics{
			Label:        label,
			DatasetBytes: 48 * mem.MiB,
			Passes:       2,
		}
	}
	return Config{
		PageSize:    64 * mem.KiB,
		TmemBytes:   32 * mem.MiB,
		TmemEnabled: tmemOn,
		Policy:      pol,
		Seed:        seed,
		VMs: []VMSpec{
			{ID: 1, Name: "VM1", RAMBytes: 32 * mem.MiB, Workload: mk("run1")},
			{ID: 2, Name: "VM2", RAMBytes: 32 * mem.MiB, Workload: mk("run1")},
		},
	}
}

func TestRunCompletesAndRecords(t *testing.T) {
	res, err := Run(smallScenario(1, nil, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyName != "greedy" {
		t.Errorf("policy name = %q", res.PolicyName)
	}
	if res.EndTime <= 0 {
		t.Error("no virtual time elapsed")
	}
	if res.HitLimit {
		t.Error("small scenario hit the safety limit")
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs = %+v, want 2", res.Runs)
	}
	for _, r := range res.Runs {
		if r.Duration() <= 0 {
			t.Errorf("run %v has non-positive duration", r)
		}
	}
	if len(res.VMs) != 2 || res.VMs[0].Name != "VM1" {
		t.Errorf("VM results = %+v", res.VMs)
	}
	// Memory pressure existed and flowed through tmem.
	if res.VMs[0].Kernel.Evictions == 0 {
		t.Error("no evictions despite dataset > RAM")
	}
	if res.VMs[0].Tmem.PutsTotal == 0 {
		t.Error("no tmem puts recorded")
	}
	if res.SampleTicks == 0 {
		t.Error("MM never ticked")
	}
	// Series recorded for both VMs plus free-tmem.
	for _, name := range []string{"tmem-VM1", "tmem-VM2", "target-VM1", "free-tmem"} {
		if !res.Series.Has(name) {
			t.Errorf("series %q missing (have %v)", name, res.Series.Names())
		}
	}
}

func TestNoTmemMode(t *testing.T) {
	res, err := Run(smallScenario(1, nil, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyName != policy.NoTmemName {
		t.Errorf("policy name = %q", res.PolicyName)
	}
	if res.VMs[0].Tmem.PutsTotal != 0 {
		t.Error("tmem puts recorded in no-tmem mode")
	}
	if len(res.Series.Names()) != 0 {
		t.Errorf("series recorded in no-tmem mode: %v", res.Series.Names())
	}
	if res.VMs[0].Kernel.DiskReads == 0 {
		t.Error("no disk reads despite pressure without tmem")
	}
}

func TestNoTmemSlowerThanTmem(t *testing.T) {
	withTmem, err := Run(smallScenario(3, nil, true))
	if err != nil {
		t.Fatal(err)
	}
	noTmem, err := Run(smallScenario(3, nil, false))
	if err != nil {
		t.Fatal(err)
	}
	if noTmem.EndTime <= withTmem.EndTime {
		t.Errorf("no-tmem (%v) not slower than tmem (%v)", noTmem.EndTime, withTmem.EndTime)
	}
}

func TestPolicyTargetsAppearInSeries(t *testing.T) {
	res, err := Run(smallScenario(1, policy.StaticAlloc{}, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyName != "static-alloc" {
		t.Errorf("policy name = %q", res.PolicyName)
	}
	// static-alloc splits 32 MiB across 2 VMs => 16 MiB = 256 pages of 64 KiB.
	ts := res.Series.Get("target-VM1")
	if ts.Len() == 0 {
		t.Fatal("no target series")
	}
	if got := ts.Last().V; got != 256 {
		t.Errorf("target-VM1 = %v pages, want 256", got)
	}
	if res.MMBatchesSent == 0 {
		t.Error("MM sent no batches")
	}
	// Dedup: static targets change once; far fewer batches than ticks.
	if res.MMBatchesSent >= res.SampleTicks && res.SampleTicks > 2 {
		t.Errorf("dedup ineffective: %d batches over %d ticks", res.MMBatchesSent, res.SampleTicks)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(smallScenario(42, policy.SmartAlloc{P: 2}, true))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallScenario(42, policy.SmartAlloc{P: 2}, true))
	if err != nil {
		t.Fatal(err)
	}
	if a.EndTime != b.EndTime {
		t.Errorf("same-seed end times differ: %v vs %v", a.EndTime, b.EndTime)
	}
	if len(a.Runs) != len(b.Runs) {
		t.Fatalf("run counts differ")
	}
	for i := range a.Runs {
		if a.Runs[i] != b.Runs[i] {
			t.Errorf("run %d differs: %+v vs %+v", i, a.Runs[i], b.Runs[i])
		}
	}
	c, err := Run(smallScenario(43, policy.SmartAlloc{P: 2}, true))
	if err != nil {
		t.Fatal(err)
	}
	if c.EndTime == a.EndTime {
		t.Error("different seeds produced identical end times (suspicious)")
	}
}

func TestRunsForFilters(t *testing.T) {
	res, err := Run(smallScenario(1, nil, true))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.RunsFor("VM1", "run1"); len(got) != 1 {
		t.Errorf("RunsFor(VM1,run1) = %v", got)
	}
	if got := res.RunsFor("", "run1"); len(got) != 2 {
		t.Errorf("RunsFor(,run1) = %v", got)
	}
	if got := res.RunsFor("VM9", ""); len(got) != 0 {
		t.Errorf("RunsFor(VM9,) = %v", got)
	}
}

func TestStartDelayRespected(t *testing.T) {
	cfg := smallScenario(1, nil, true)
	cfg.StartJitter = -1 // disable jitter for exactness
	cfg.VMs[1].StartDelay = 30 * sim.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vm2 := res.RunsFor("VM2", "")
	if len(vm2) == 0 || vm2[0].Start < sim.Time(30*sim.Second) {
		t.Errorf("VM2 started early: %+v", vm2)
	}
	vm1 := res.RunsFor("VM1", "")
	if len(vm1) == 0 || vm1[0].Start >= sim.Time(1*sim.Second) {
		t.Errorf("VM1 start unexpected: %+v", vm1)
	}
}

func TestStopFlagAndMilestones(t *testing.T) {
	stop := &workload.Flag{}
	var milestones []string
	cfg := Config{
		TmemBytes:   24 * mem.MiB,
		TmemEnabled: true,
		Seed:        5,
		Stop:        stop,
		OnMilestone: func(vm, label string) {
			milestones = append(milestones, vm+"/"+label)
			if label == workload.MilestoneLabel(32*mem.MiB) {
				stop.Set()
			}
		},
		VMs: []VMSpec{{
			ID: 1, Name: "VM1", RAMBytes: 24 * mem.MiB,
			Workload: workload.Usemem{
				StartBytes: 16 * mem.MiB, StepBytes: 16 * mem.MiB, MaxBytes: 128 * mem.MiB,
			},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(milestones) == 0 || !strings.HasPrefix(milestones[0], "VM1/") {
		t.Fatalf("milestones = %v", milestones)
	}
	// Stopped after the 32 MiB milestone: no 48 MiB milestone may exist.
	for _, m := range milestones {
		if strings.Contains(m, "48MiB") {
			t.Errorf("workload ran past stop: %v", milestones)
		}
	}
	if res.HitLimit {
		t.Error("run hit limit instead of stopping")
	}
}

func TestLimitCutsRunaway(t *testing.T) {
	cfg := smallScenario(1, nil, true)
	cfg.Limit = 200 * sim.Millisecond // far below natural runtime
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HitLimit {
		t.Error("limit not reported")
	}
	if res.EndTime != sim.Time(200*sim.Millisecond) {
		t.Errorf("end time = %v, want 200ms", res.EndTime)
	}
}

func TestConfigValidationErrors(t *testing.T) {
	base := smallScenario(1, nil, true)
	cases := map[string]func(c *Config){
		"no VMs":          func(c *Config) { c.VMs = nil },
		"dup id":          func(c *Config) { c.VMs[1].ID = c.VMs[0].ID },
		"dup name":        func(c *Config) { c.VMs[1].Name = c.VMs[0].Name },
		"no name":         func(c *Config) { c.VMs[0].Name = "" },
		"no workload":     func(c *Config) { c.VMs[0].Workload = nil },
		"no RAM":          func(c *Config) { c.VMs[0].RAMBytes = 0 },
		"tmem without":    func(c *Config) { c.TmemBytes = 0 },
		"bad page size":   func(c *Config) { c.PageSize = 3000 },
		"negative sample": func(c *Config) { c.SampleInterval = -1 },
	}
	for name, mutate := range cases {
		cfg := base
		cfg.VMs = append([]VMSpec(nil), base.VMs...)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestGreedyStarvesLatecomerSmartAllocDoesNot(t *testing.T) {
	// One aggressive early VM + one late VM. Under greedy the early VM
	// monopolizes tmem and re-acquires pages as fast as it releases them,
	// starving the latecomer; smart-alloc caps the early VM so the
	// latecomer obtains a materially larger share (the paper's Figure 6
	// dynamic). Targets never force reclaim, so the early VM's *peak* is
	// identical in both cases — what changes is what VM2 can get.
	mk := func(pol policy.Policy) Config {
		wl := func(iters int) workload.Workload {
			return workload.GraphAnalytics{
				Label: "g", GraphBytes: 56 * mem.MiB, Iterations: iters,
				TouchesPerPagePerIter: 2, WriteFraction: 0.03,
				CPUPerTouch: 1500 * sim.Microsecond,
			}
		}
		return Config{
			TmemBytes:   32 * mem.MiB,
			TmemEnabled: true,
			Seed:        7,
			StartJitter: -1,
			Policy:      pol,
			VMs: []VMSpec{
				{ID: 1, Name: "VM1", RAMBytes: 32 * mem.MiB, Workload: wl(30)},
				{ID: 2, Name: "VM2", RAMBytes: 32 * mem.MiB, StartDelay: 10 * sim.Second, Workload: wl(10)},
			},
		}
	}
	greedy, err := Run(mk(nil))
	if err != nil {
		t.Fatal(err)
	}
	smart, err := Run(mk(policy.SmartAlloc{P: 6}))
	if err != nil {
		t.Fatal(err)
	}
	// VM1's entire overflow fits in tmem, so under greedy it takes far
	// more than the 50% fair share of the pool.
	fair := float64(mem.PagesIn(32*mem.MiB, 64*mem.KiB)) / 2
	if peak := greedy.Series.Get("tmem-VM1").Max(); peak < 1.5*fair {
		t.Errorf("greedy early VM peaked at %v pages; expected well above fair share %v", peak, fair)
	}
	// While VM1 holds the pool, greedy VM2 pays disk prices for its
	// overflow; smart-alloc shrinks VM1's target so VM2 obtains a share
	// and finishes faster (the paper's headline metric).
	dur := func(r *Result, name string) sim.Duration {
		runs := r.RunsFor(name, "")
		if len(runs) != 1 {
			t.Fatalf("runs for %s = %+v", name, runs)
		}
		return runs[0].Duration()
	}
	greedyVM2 := dur(greedy, "VM2")
	smartVM2 := dur(smart, "VM2")
	if smartVM2 >= greedyVM2 {
		t.Errorf("smart-alloc VM2 runtime %v not below greedy %v", smartVM2, greedyVM2)
	}
}

// A VM whose start time the run never reaches must not start during
// teardown: no VMStarted event, no run record, no guest activity.
func TestVMBeyondLimitNeverStarts(t *testing.T) {
	cfg := smallScenario(1, nil, true)
	cfg.Limit = 1 * sim.Second
	cfg.VMs[1].StartDelay = 10 * sim.Second
	var started []string
	res, err := RunWith(nil, cfg, ObserverFunc(func(e Event) {
		if ev, ok := e.(VMStarted); ok {
			started = append(started, ev.VM)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.HitLimit {
		t.Fatal("run did not hit the limit; the test needs a longer workload")
	}
	if len(started) != 1 || started[0] != "VM1" {
		t.Errorf("VMStarted for %v, want VM1 only", started)
	}
	if got := res.VMs[1].Kernel.Touches; got != 0 {
		t.Errorf("VM2 touched %d pages after the run was over", got)
	}
}
