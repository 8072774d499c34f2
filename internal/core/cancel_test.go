package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"smartmem/internal/mem"
	"smartmem/internal/policy"
	"smartmem/internal/sim"
	"smartmem/internal/workload"
)

// fourNodeCluster doubles smallCluster into a 4-node ring (two
// oversubscribed nodes, two absorbers) so overflow crosses every edge.
func fourNodeCluster(seed uint64, pol policy.Policy) ClusterConfig {
	a := smallCluster(seed, pol, true)
	b := smallCluster(seed, pol, true)
	a.Nodes = append(a.Nodes, b.Nodes...)
	return a
}

// Cancelling mid-run must stop every node kernel promptly and still hand
// back a merged partial Result covering all nodes. The subtest keeps the
// name of the stepping driver's case from when a goroutine driver
// (parallel=true) ran beside it; stepping is now the only cluster driver.
func TestClusterCancellationStopsAllNodes(t *testing.T) {
	t.Run("parallel=false", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var ticks atomic.Int32
		obs := ObserverFunc(func(e Event) {
			if _, ok := e.(SampleTick); ok && ticks.Add(1) == 3 {
				cancel()
			}
		})

		res, err := RunClusterWith(ctx, fourNodeCluster(5, nil), obs)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res == nil {
			t.Fatal("no partial result on cancellation")
		}
		if !res.Cancelled {
			t.Error("partial result not marked cancelled")
		}
		if len(res.Nodes) != 4 {
			t.Fatalf("partial result has %d node summaries, want 4", len(res.Nodes))
		}
		if len(res.VMs) != 6 {
			t.Errorf("partial result has %d VM entries, want 6", len(res.VMs))
		}
		if res.EndTime == 0 {
			t.Error("partial result has no end time")
		}
	})
}

// loneVM is a node whose only process is one VM's workload: no tmem, so no
// manager tick, and nothing else is ever queued — the workload runs ahead
// from its start to its end inside one kernel step, and only its own poll
// of the run context can stop it early.
func loneVM() Config {
	return Config{
		PageSize: 4 * mem.KiB,
		Seed:     9,
		VMs: []VMSpec{{ID: 1, Name: "VM1", RAMBytes: 64 * mem.MiB, Workload: workload.InMemoryAnalytics{
			Label:        "run1",
			DatasetBytes: 128 * mem.MiB,
			Passes:       16,
		}}},
	}
}

// requirePromptCancel runs run uncancelled, then again cancelled from the
// observer at the first VMStarted, and fails unless the second run returns
// context.Canceled with a Cancelled partial Result in under a tenth of the
// first's wall time.
func requirePromptCancel(t *testing.T, run func(context.Context, Observer) (*Result, error)) {
	t.Helper()
	start := time.Now()
	if _, err := run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := ObserverFunc(func(e Event) {
		if _, ok := e.(VMStarted); ok {
			cancel()
		}
	})
	start = time.Now()
	res, err := run(ctx, obs)
	took := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || !res.Cancelled {
		t.Fatalf("partial result %+v not marked cancelled", res)
	}
	if took > full/10 {
		t.Errorf("cancelled run took %v, want under a tenth of the full run's %v", took, full)
	}
}

// With nothing else queued, a workload runs ahead through its whole run in
// one event, so the driver's between-event context check never comes; the
// workload's own poll (workload.Ctx.Stopped) must stop it.
func TestRunAheadCancellationIsPrompt(t *testing.T) {
	requirePromptCancel(t, func(ctx context.Context, obs Observer) (*Result, error) {
		return RunWith(ctx, loneVM(), obs)
	})
}

// The cluster mirror under driveStepping: node 1's VM starts only after
// node 0's has finished, so node 0's workload runs ahead through its whole
// run inside one step, up to node 1's head.
func TestClusterRunAheadCancellationIsPrompt(t *testing.T) {
	late := loneVM()
	late.VMs[0].StartDelay = 2 * 3600 * sim.Second
	requirePromptCancel(t, func(ctx context.Context, obs Observer) (*Result, error) {
		return RunClusterWith(ctx, ClusterConfig{Nodes: []Config{loneVM(), late}}, obs)
	})
}
