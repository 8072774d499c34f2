package experiments

import (
	"context"
	"strings"
	"testing"

	"smartmem/internal/mem"
	"smartmem/internal/workload"
)

// The tentpole determinism guarantee: a parallel Times sweep must produce
// a table byte-identical to the sequential (parallelism 1) sweep for the
// same seeds.
func TestParallelTimesIdenticalToSequential(t *testing.T) {
	policies := []string{"greedy", "static-alloc"}
	seeds := []uint64{11, 23}

	render := func(parallelism int) string {
		tab, err := TimesOpts(UsememScenario, policies, seeds, Options{Parallelism: parallelism})
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		var sb strings.Builder
		if err := TimesReport(tab).Render(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	seq := render(1)
	par := render(8)
	if seq != par {
		t.Errorf("parallel table differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// Race coverage: at least four core.Run simulations in flight at once
// (each with its own kernel, backend and RNG streams). Run with
// go test -race to prove concurrent runs share no mutable state.
func TestEngineConcurrentRunsRaceFree(t *testing.T) {
	s, err := BySlug("scale-4")
	if err != nil {
		t.Fatal(err)
	}
	jobs := Matrix([]*Scenario{s}, []string{"greedy", "static-alloc"}, []uint64{11, 23, 37})
	if len(jobs) < 4 {
		t.Fatalf("want >= 4 jobs, got %d", len(jobs))
	}
	results, err := Options{Parallelism: 4}.run(jobs, false)
	if err != nil {
		t.Fatal(err, false)
	}
	for i, jr := range results {
		if jr.Index != i || jr.Err != nil || jr.Result == nil {
			t.Fatalf("result %d: index=%d err=%v result=%v", i, jr.Index, jr.Err, jr.Result != nil)
		}
	}
}

// Results must come back merged by job index with every job reported to
// the progress callback exactly once.
func TestEngineOrderingAndProgress(t *testing.T) {
	jobs := Matrix([]*Scenario{UsememScenario}, []string{"greedy"}, []uint64{11, 23, 37, 51})
	var calls int
	var lastDone int
	opt := Options{Parallelism: 4, OnProgress: func(done, total int, j Job) {
		calls++
		if total != len(jobs) {
			t.Errorf("progress total = %d, want %d", total, len(jobs))
		}
		if done != lastDone+1 {
			t.Errorf("progress done = %d after %d (not serialized)", done, lastDone)
		}
		lastDone = done
	}}
	results, err := opt.run(jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(jobs) {
		t.Errorf("progress calls = %d, want %d", calls, len(jobs))
	}
	for i, jr := range results {
		if jr.Job.Seed != jobs[i].Seed || jr.Index != i {
			t.Errorf("result %d out of order: job seed %d index %d", i, jr.Job.Seed, jr.Index)
		}
	}
}

// A failing job must surface its error and stop dispatching later jobs.
func TestEngineFailFast(t *testing.T) {
	jobs := []Job{
		{Scenario: UsememScenario, PolicySpec: "bogus-policy", Seed: 11},
		{Scenario: UsememScenario, PolicySpec: "greedy", Seed: 11},
		{Scenario: UsememScenario, PolicySpec: "greedy", Seed: 23},
	}
	results, err := Options{Parallelism: 1}.run(jobs, false)
	if err == nil {
		t.Fatal("bad policy did not fail the sweep", false)
	}
	if results[0].Err == nil {
		t.Error("failing job has no error")
	}
	for _, jr := range results[1:] {
		if jr.Err == nil && jr.Result == nil {
			t.Errorf("job %d neither ran nor was marked skipped", jr.Index)
		}
	}
}

// A pre-cancelled context must stop the sweep before running anything.
func TestEngineContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := Matrix([]*Scenario{UsememScenario}, []string{"greedy"}, nil)
	results, err := Options{Parallelism: 2, Context: ctx}.run(jobs, false)
	if err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	ran := 0
	for _, jr := range results {
		if jr.Result != nil {
			ran++
		}
	}
	if ran == len(jobs) {
		t.Error("cancellation did not skip any job")
	}
}

func TestRegistryScaleFamily(t *testing.T) {
	a, err := BySlug("scale-8")
	if err != nil {
		t.Fatal(err)
	}
	b, err := BySlug("scale-8")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("scale-8 not memoized: repeated lookups return different scenarios")
	}
	cfg, err := a.Build(11, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.VMs) != 8 {
		t.Errorf("scale-8 VMs = %d, want 8", len(cfg.VMs))
	}
	if a.TmemBytes != 8*128*mem.MiB {
		t.Errorf("scale-8 tmem = %v, want 1GiB", a.TmemBytes)
	}
	for _, bad := range []string{"scale-", "scale-0", "scale-1", "scale-abc", "scale-9999"} {
		if _, err := BySlug(bad); err == nil {
			t.Errorf("BySlug(%q) did not fail", bad)
		}
	}
}

func TestRegistryOrderAndRegistration(t *testing.T) {
	all := All()
	if len(all) < 6 {
		t.Fatalf("registry holds %d scenarios, want >= 6", len(all))
	}
	wantFirst := []string{"s1", "s2", "usemem", "s3"}
	for i, slug := range wantFirst {
		if all[i].Slug != slug {
			t.Errorf("All()[%d] = %q, want %q (paper scenarios first)", i, all[i].Slug, slug)
		}
	}
	// A user scenario registered through NewScenario resolves by slug.
	custom := NewScenario(Scenario{
		Name:        "Custom",
		Slug:        "custom-test-scenario",
		Description: "registry test",
		TmemBytes:   64 * mem.MiB,
		Policies:    []string{"greedy"},
	}, UsememScenario.build)
	Register(custom)
	got, err := BySlug("custom-test-scenario")
	if err != nil || got != custom {
		t.Errorf("custom scenario lookup: %v, %v", got, err)
	}
	for _, s := range PaperScenarios() {
		if !s.Paper {
			t.Errorf("PaperScenarios returned non-paper %q", s.Slug)
		}
	}
}

// The scale scenario must terminate on its own stop condition with every
// VM completing the full 512 MiB traversal.
func TestScaleScenarioRuns(t *testing.T) {
	s, err := BySlug("scale-6")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOne(s, "smart-alloc:P=2", 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		vm := "VM" + string(rune('0'+i))
		if len(res.RunsFor(vm, workload.RunLabel(512*mem.MiB))) == 0 {
			t.Errorf("%s never completed a 512MiB traversal", vm)
		}
	}
	if len(res.VMs) != 6 {
		t.Errorf("VM results = %d, want 6", len(res.VMs))
	}
}

// The churn scenario must finish both analytics workloads and stop the
// usemem churners afterwards.
func TestChurnScenarioRuns(t *testing.T) {
	res, err := RunOne(ChurnScenario, "greedy", 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RunsFor("VM1", "analytics")) == 0 {
		t.Error("VM1 in-memory-analytics never completed")
	}
	if len(res.RunsFor("VM2", "graph")) == 0 {
		t.Error("VM2 graph-analytics never completed")
	}
	churnRuns := len(res.RunsFor("VM3", "")) + len(res.RunsFor("VM4", ""))
	if churnRuns == 0 {
		t.Error("usemem churners produced no traversals")
	}
}

func TestRegistryTableRender(t *testing.T) {
	var sb strings.Builder
	if err := RegistryTable().Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scale-6", "churn", "scale-<n>", "s1"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("registry table missing %q:\n%s", want, sb.String())
		}
	}
}
