package core

import (
	"testing"

	"smartmem/internal/mem"
	"smartmem/internal/policy"
	"smartmem/internal/workload"
)

// Cleancache and frontswap coexist on one node: file-backed reads populate
// the ephemeral pool, anonymous pressure the persistent pool, and the
// persistent pool wins frames under pressure.
func TestCleancacheCoexistsWithFrontswap(t *testing.T) {
	cfg := smallScenario(9, nil, true)
	cfg.Cleancache = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.VMs[0].Tmem.PutsSucc == 0 {
		t.Error("no successful puts with cleancache enabled")
	}
}

// Per-seed determinism must hold through the full experiments path,
// including milestones and stop flags.
func TestUsememStyleDeterminism(t *testing.T) {
	build := func() Config {
		stop := &workload.Flag{}
		cfg := Config{
			TmemBytes:   48 * mem.MiB,
			TmemEnabled: true,
			Policy:      policy.SmartAlloc{P: 2},
			Seed:        21,
			Stop:        stop,
			VMs: []VMSpec{
				{ID: 1, Name: "VM1", RAMBytes: 64 * mem.MiB,
					Workload: workload.Usemem{StartBytes: 32 * mem.MiB, StepBytes: 32 * mem.MiB, MaxBytes: 128 * mem.MiB}},
				{ID: 2, Name: "VM2", RAMBytes: 64 * mem.MiB,
					Workload: workload.Usemem{StartBytes: 32 * mem.MiB, StepBytes: 32 * mem.MiB, MaxBytes: 128 * mem.MiB}},
			},
		}
		n := 0
		cfg.OnMilestone = func(vm, label string) {
			if label == workload.MilestoneLabel(128*mem.MiB) {
				n++
				if n >= 4 {
					stop.Set()
				}
			}
		}
		return cfg
	}
	a, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	if a.EndTime != b.EndTime || len(a.Runs) != len(b.Runs) {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d", a.EndTime, len(a.Runs), b.EndTime, len(b.Runs))
	}
	for i := range a.Runs {
		if a.Runs[i] != b.Runs[i] {
			t.Errorf("run %d differs: %+v vs %+v", i, a.Runs[i], b.Runs[i])
		}
	}
}

// The monitor's series obey conservation: used(VM1)+used(VM2)+free equals
// the pool size at every sample.
func TestSeriesConservation(t *testing.T) {
	res, err := Run(smallScenario(5, policy.SmartAlloc{P: 4}, true))
	if err != nil {
		t.Fatal(err)
	}
	total := float64(mem.PagesIn(32*mem.MiB, 64*mem.KiB))
	free := res.Series.Get("free-tmem")
	u1 := res.Series.Get("tmem-VM1")
	u2 := res.Series.Get("tmem-VM2")
	for i := 0; i < free.Len(); i++ {
		p := free.At(i)
		sum := p.V + u1.ValueAt(p.T) + u2.ValueAt(p.T)
		if sum != total {
			t.Fatalf("t=%.1fs: free %v + used %v + %v = %v, want %v",
				p.T, p.V, u1.ValueAt(p.T), u2.ValueAt(p.T), sum, total)
		}
	}
	if free.Len() == 0 {
		t.Fatal("no samples recorded")
	}
}

// Disk jitter must vary service times without breaking determinism.
func TestDiskJitterDeterministic(t *testing.T) {
	mk := func() Config {
		cfg := smallScenario(13, nil, true)
		cfg.DiskJitter = 0.3
		return cfg
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.EndTime != b.EndTime {
		t.Errorf("jittered runs diverge: %v vs %v", a.EndTime, b.EndTime)
	}
	if a.DiskOps == 0 {
		t.Error("no disk traffic under pressure")
	}
}
