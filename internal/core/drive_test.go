package core

import (
	"context"
	"fmt"
	"testing"

	"smartmem/internal/sim"
)

// mergedTrace runs a random multi-kernel program of seed under drive and
// returns the order its processes ran in, one "kernel@time/pid" per wake-up.
// Sleeps come from a few short durations so wake-ups of different kernels
// tie often and land one nanosecond apart often.
func mergedTrace(seed uint64, drive func([]*sim.Kernel)) []string {
	rng := sim.NewRNG(seed)
	kerns := make([]*sim.Kernel, 2+rng.Intn(3))
	limit := sim.Time(0)
	if rng.Intn(2) == 0 {
		limit = sim.Time(20 + 5*rng.Intn(40))
	}
	var trace []string
	for i := range kerns {
		k := sim.NewKernel(1)
		k.SetLimit(limit)
		kerns[i] = k
		for n := 1 + rng.Intn(3); n > 0; n-- {
			sleeps := make([]sim.Duration, 1+rng.Intn(30))
			for j := range sleeps {
				sleeps[j] = []sim.Duration{0, 1, 2, 5, 5, 10}[rng.Intn(6)]
			}
			k.SpawnAt("p", 5*sim.Duration(rng.Intn(3)), func(p *sim.Proc) {
				for _, d := range sleeps {
					trace = append(trace, fmt.Sprintf("%d@%d/%d", i, p.Now(), p.ID()))
					p.Sleep(d)
				}
			})
		}
	}
	drive(kerns)
	for _, k := range kerns {
		k.KillAll()
	}
	return trace
}

// driveStepping lets the stepped kernel's processes run ahead; the merged
// (time, node index) order must still be exactly the one a plain loop that
// steps the earliest head one event at a time produces, cross-kernel ties
// included.
func TestDriveSteppingMatchesMergedOrder(t *testing.T) {
	ranAhead := uint64(0)
	for seed := uint64(1); seed <= 300; seed++ {
		want := mergedTrace(seed, func(kerns []*sim.Kernel) {
			for {
				next, at := -1, sim.Time(0)
				for i, k := range kerns {
					if t, ok := k.PeekTime(); ok && (next < 0 || t < at) {
						next, at = i, t
					}
				}
				if next < 0 || !kerns[next].Step() {
					return
				}
			}
		})
		got := mergedTrace(seed, func(kerns []*sim.Kernel) {
			driveStepping(context.Background(), kerns, make([]*Result, len(kerns)))
			for _, k := range kerns {
				_, ra := k.Counts()
				ranAhead += ra
			}
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: driveStepping ran\n%v\nwant\n%v", seed, got, want)
		}
	}
	if ranAhead == 0 {
		t.Fatal("no kernel ran ahead")
	}
}
