package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"smartmem/internal/policy"
)

// seriesCSV renders a result's series set to its canonical CSV form, the
// byte-level representation the goldens compare.
func seriesCSV(t *testing.T, res *Result) string {
	t.Helper()
	var sb strings.Builder
	if err := res.Series.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// requireIdenticalResults fails unless the two results are byte-identical
// in every field the two drivers must agree on.
func requireIdenticalResults(t *testing.T, seq, par *Result) {
	t.Helper()
	if seq.EndTime != par.EndTime {
		t.Errorf("end times differ: seq=%v par=%v", seq.EndTime, par.EndTime)
	}
	if seq.HitLimit != par.HitLimit {
		t.Errorf("hit-limit differs: seq=%v par=%v", seq.HitLimit, par.HitLimit)
	}
	if !reflect.DeepEqual(seq.Runs, par.Runs) {
		t.Errorf("run records differ:\nseq: %v\npar: %v", seq.Runs, par.Runs)
	}
	if !reflect.DeepEqual(seq.VMs, par.VMs) {
		t.Errorf("VM stats differ:\nseq: %+v\npar: %+v", seq.VMs, par.VMs)
	}
	if !reflect.DeepEqual(seq.Nodes, par.Nodes) {
		t.Errorf("node summaries differ:\nseq: %+v\npar: %+v", seq.Nodes, par.Nodes)
	}
	if seq.SampleTicks != par.SampleTicks || seq.MMBatchesSent != par.MMBatchesSent {
		t.Errorf("MM counters differ: seq ticks=%d batches=%d, par ticks=%d batches=%d",
			seq.SampleTicks, seq.MMBatchesSent, par.SampleTicks, par.MMBatchesSent)
	}
	if seq.DiskOps != par.DiskOps || seq.DiskBusy != par.DiskBusy {
		t.Errorf("disk counters differ: seq ops=%d busy=%v, par ops=%d busy=%v",
			seq.DiskOps, seq.DiskBusy, par.DiskOps, par.DiskBusy)
	}
	if sc, pc := seriesCSV(t, seq), seriesCSV(t, par); sc != pc {
		t.Errorf("series CSV differs:\nseq:\n%s\npar:\n%s", sc, pc)
	}
}

// TestParallelClusterMatchesSequential is the in-package differential
// check: the goroutine driver must reproduce the stepping driver's Result
// byte-for-byte on the overflow-heavy 2-node cluster. (Both are pinned to
// the old single-kernel runtime's digests in internal/experiments.)
func TestParallelClusterMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		for _, tc := range []struct {
			name string
			pol  policy.Policy
		}{
			{"greedy", nil},
			{"smart-alloc", policy.SmartAlloc{P: 2}},
		} {
			t.Run(fmt.Sprintf("seed-%d/%s", seed, tc.name), func(t *testing.T) {
				seq, err := RunCluster(smallCluster(seed, tc.pol, true))
				if err != nil {
					t.Fatal(err)
				}
				cc := smallCluster(seed, tc.pol, true)
				cc.Parallel = true
				par, err := RunCluster(cc)
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalResults(t, seq, par)
			})
		}
	}
}

// fourNodeCluster doubles smallCluster into a 4-node ring (two
// oversubscribed nodes, two absorbers) so overflow crosses every edge.
func fourNodeCluster(seed uint64, pol policy.Policy) ClusterConfig {
	a := smallCluster(seed, pol, true)
	b := smallCluster(seed, pol, true)
	a.Nodes = append(a.Nodes, b.Nodes...)
	return a
}

// The 4-node ring exercises gates on every edge, including the wrap-around
// edge whose injections must wait *strictly* (owner index < injector
// index).
func TestParallelClusterMatchesSequentialFourNodes(t *testing.T) {
	seq, err := RunCluster(fourNodeCluster(11, policy.SmartAlloc{P: 2}))
	if err != nil {
		t.Fatal(err)
	}
	cc := fourNodeCluster(11, policy.SmartAlloc{P: 2})
	cc.Parallel = true
	par, err := RunCluster(cc)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, seq, par)
}

// Cancelling mid-run must stop every node kernel promptly — under both
// drivers — and still hand back a merged partial Result covering all nodes.
func TestClusterCancellationStopsAllNodes(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			cc := fourNodeCluster(5, nil)
			cc.Parallel = parallel

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var ticks atomic.Int32
			obs := ObserverFunc(func(e Event) {
				if _, ok := e.(SampleTick); ok && ticks.Add(1) == 3 {
					cancel()
				}
			})

			res, err := RunClusterWith(ctx, cc, obs)
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
}

// A parallel run against a cluster whose nodes share no remote tier (and
// hence no state) must still merge exactly like the sequential run.
func TestParallelClusterWithoutRemoteTmem(t *testing.T) {
	seq, err := RunCluster(smallCluster(3, nil, false))
	if err != nil {
		t.Fatal(err)
	}
	cc := smallCluster(3, nil, false)
	cc.Parallel = true
	par, err := RunCluster(cc)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, seq, par)
}

func TestNodeClock(t *testing.T) {
	c := newNodeClock()
	c.publish(10)
	c.publish(5) // monotonic: lower publishes are ignored
	if got := c.bound.Load(); got != 10 {
		t.Fatalf("bound = %d, want 10", got)
	}
	c.wait(10, false) // >= 10 holds
	c.wait(9, true)   // > 9 holds

	// A strict wait at the bound must block until the bound moves.
	done := make(chan struct{})
	go func() {
		c.wait(10, true)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("strict wait at the bound returned without a publish")
	default:
	}
	c.publish(11)
	<-done
}
