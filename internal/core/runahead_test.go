package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartmem/internal/core"
	"smartmem/internal/experiments"
	"smartmem/internal/sim"
	"smartmem/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// renderResult renders every deterministic field of a Result to one
// canonical text: the structured fields as a printf dump and the series set
// in its CSV form.
func renderResult(t *testing.T, res *core.Result) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "policy=%s seed=%d end=%d hitlimit=%v cancelled=%v ticks=%d batches=%d diskops=%d diskbusy=%d\n",
		res.PolicyName, res.Seed, res.EndTime, res.HitLimit, res.Cancelled,
		res.SampleTicks, res.MMBatchesSent, res.DiskOps, res.DiskBusy)
	for _, r := range res.Runs {
		fmt.Fprintf(&sb, "run %s %s %d %d\n", r.VM, r.Label, r.Start, r.End)
	}
	for _, v := range res.VMs {
		fmt.Fprintf(&sb, "vm %s %d kernel=%+v tmem=%+v\n", v.Name, v.ID, v.Kernel, v.Tmem)
	}
	if err := res.Series.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// kernelSpy runs a workload unchanged and remembers the kernel it ran on.
type kernelSpy struct {
	workload.Workload
	kern **sim.Kernel
}

func (s kernelSpy) Run(ctx *workload.Ctx) {
	*s.kern = ctx.Proc.Kernel()
	s.Workload.Run(ctx)
}

// TestS1GreedyRunsAhead pins that the run-ahead fast path fires on a paper
// scenario — at least 40% of s1 / greedy / seed 11's wake-ups skip the
// queue — and that it changes nothing: the Result is byte-equal to the one
// recorded before processes could run ahead. A change that puts an event in
// front of every wake-up fails the first check; regenerate the golden (only
// for an intended model change) with:
//
//	go test ./internal/core -run TestS1GreedyRunsAhead -args -update
func TestS1GreedyRunsAhead(t *testing.T) {
	s, err := experiments.BySlug("s1")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build(11, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	var kern *sim.Kernel
	for i := range cfg.VMs {
		cfg.VMs[i].Workload = kernelSpy{cfg.VMs[i].Workload, &kern}
	}
	res, err := core.RunWith(nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	events, ahead := kern.Counts()
	share := float64(ahead) / float64(events+ahead)
	t.Logf("%d of %d wake-ups ran ahead (%.1f%%)", ahead, events+ahead, 100*share)
	if share < 0.40 {
		t.Errorf("want at least 40%% of wake-ups run ahead")
	}

	got := renderResult(t, res)
	golden := filepath.Join("testdata", "s1_greedy_seed11.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (rerun with -args -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("Result drifted from the golden (%d bytes vs %d)", len(got), len(want))
	}
}
