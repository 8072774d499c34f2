package experiments

import (
	"strings"
	"testing"

	"smartmem/internal/mem"
	"smartmem/internal/tmem"
	"smartmem/internal/workload"
)

// TestTableII_ScenarioRegistry checks the scenario registry against the
// paper's Table II.
func TestTableII_ScenarioRegistry(t *testing.T) {
	if got := len(PaperScenarios()); got != 4 {
		t.Fatalf("paper scenario count = %d, want 4", got)
	}
	for _, s := range PaperScenarios() {
		cfg, err := s.Build(1, "greedy")
		if err != nil {
			t.Fatalf("%s: %v", s.Slug, err)
		}
		if len(cfg.VMs) != 3 {
			t.Errorf("%s: %d VMs, want 3 (Table II: 'In all cases, we deploy 3 VMs')", s.Slug, len(cfg.VMs))
		}
	}
	// Scenario 1: three 1 GB VMs, 1 GB tmem.
	cfg, _ := Scenario1.Build(1, "greedy")
	for _, vm := range cfg.VMs {
		if vm.RAMBytes != mem.GiB {
			t.Errorf("Scenario 1 %s RAM = %v, want 1GiB", vm.Name, vm.RAMBytes)
		}
	}
	if Scenario1.TmemBytes != mem.GiB {
		t.Errorf("Scenario 1 tmem = %v", Scenario1.TmemBytes)
	}
	// Scenario 2: 512 MB VMs, VM3 +30 s.
	cfg, _ = Scenario2.Build(1, "greedy")
	if cfg.VMs[2].StartDelay.Seconds() != 30 {
		t.Errorf("Scenario 2 VM3 delay = %v, want 30s", cfg.VMs[2].StartDelay)
	}
	for _, vm := range cfg.VMs {
		if vm.RAMBytes != 512*mem.MiB {
			t.Errorf("Scenario 2 %s RAM = %v", vm.Name, vm.RAMBytes)
		}
	}
	// Usemem: 384 MiB tmem (the only scenario with less than 1 GiB, §IV).
	if UsememScenario.TmemBytes != 384*mem.MiB {
		t.Errorf("usemem tmem = %v, want 384MiB", UsememScenario.TmemBytes)
	}
	// Scenario 3: VM3 has 1 GB and starts 30 s late.
	cfg, _ = Scenario3.Build(1, "greedy")
	if cfg.VMs[2].RAMBytes != mem.GiB || cfg.VMs[2].StartDelay.Seconds() != 30 {
		t.Errorf("Scenario 3 VM3 = %+v", cfg.VMs[2])
	}
	// Slug lookup.
	for _, s := range All() {
		got, err := BySlug(s.Slug)
		if err != nil || got != s {
			t.Errorf("BySlug(%q) = %v, %v", s.Slug, got, err)
		}
	}
	if _, err := BySlug("nope"); err == nil {
		t.Error("BySlug(nope) did not fail")
	}
}

// TestTableI_StatisticsInventory verifies that every statistic of the
// paper's Table I is observable through the implemented interfaces.
func TestTableI_StatisticsInventory(t *testing.T) {
	b := tmem.NewBackend(100, tmem.NewMetaStore(4096))
	pool := b.NewPool(1, tmem.Persistent)
	b.SetTarget(1, 1) // force one failure below

	// E_TMEM / S_TMEM.
	if st := b.Put(tmem.Key{Pool: pool, Object: 1, Index: 1}, nil); st != tmem.STmem {
		t.Fatalf("put = %v", st)
	}
	if st := b.Put(tmem.Key{Pool: pool, Object: 1, Index: 2}, nil); st != tmem.ETmem {
		t.Fatalf("put over target = %v", st)
	}
	ms := b.Sample(1)

	// node_info.free_tmem, node_info.vm_count.
	if ms.FreeTmem != 99 || ms.VMCount() != 1 {
		t.Errorf("free=%d vmcount=%d", ms.FreeTmem, ms.VMCount())
	}
	v, ok := ms.Find(1)
	if !ok {
		t.Fatal("vm 1 missing")
	}
	// vm_data_hyp[id].vm_id / tmem_used / mm_target / puts_total /
	// puts_succ.
	if v.ID != 1 || v.TmemUsed != 1 || v.MMTarget != 1 || v.PutsTotal != 2 || v.PutsSucc != 1 {
		t.Errorf("vm stat = %+v", v)
	}
	// mm_out[i].vm_id / mm_target.
	b.ApplyTargets([]tmem.TargetUpdate{{ID: 1, MMTarget: 42}})
	if b.Target(1) != 42 {
		t.Errorf("target = %d", b.Target(1))
	}
}

func TestBuildRejectsBadPolicy(t *testing.T) {
	if _, err := Scenario1.Build(1, "bogus"); err == nil {
		t.Error("bad policy accepted")
	}
	cfg, err := Scenario1.Build(1, "no-tmem")
	if err != nil || cfg.TmemEnabled {
		t.Errorf("no-tmem build: %v, enabled=%v", err, cfg.TmemEnabled)
	}
}

// The usemem scenario's cross-VM staging: VM3 starts only after VM1 and
// VM2 both attempt 640 MiB, and everything stops at VM3's 768 MiB attempt.
func TestUsememStaging(t *testing.T) {
	res, err := RunOne(UsememScenario, "greedy", 11)
	if err != nil {
		t.Fatal(err)
	}
	vm12End := func(vm string) float64 {
		runs := res.RunsFor(vm, workload.RunLabel(512*mem.MiB))
		if len(runs) == 0 {
			t.Fatalf("%s has no 512MiB run", vm)
		}
		return runs[0].End.Seconds()
	}
	vm3Runs := res.RunsFor("VM3", "")
	if len(vm3Runs) == 0 {
		t.Fatal("VM3 never ran")
	}
	vm3Start := vm3Runs[0].Start.Seconds()
	// VM3's first traversal must not start before both VM1 and VM2
	// completed their 512 MiB traversal (i.e. attempted 640 MiB).
	if vm3Start < vm12End("VM1") || vm3Start < vm12End("VM2") {
		t.Errorf("VM3 started at %.2fs, before VM1 (%.2fs) / VM2 (%.2fs) attempted 640MiB",
			vm3Start, vm12End("VM1"), vm12End("VM2"))
	}
	// VM3 must not complete a 768 MiB traversal (the scenario stops when
	// VM3 *attempts* it).
	if got := res.RunsFor("VM3", workload.RunLabel(768*mem.MiB)); len(got) != 0 {
		t.Errorf("VM3 completed a 768MiB traversal: %+v", got)
	}
}

// TestFig1_PutGetDataPath exercises the put/get data path of the paper's
// Figure 1 end to end through a scenario run: pages put by a pressured VM
// are retrievable, and both cleancache and frontswap observe traffic.
func TestFig1_PutGetDataPath(t *testing.T) {
	res, err := RunOne(UsememScenario, "greedy", 11)
	if err != nil {
		t.Fatal(err)
	}
	var sawPuts, sawHits bool
	for _, vm := range res.VMs {
		if vm.Kernel.PutsOK > 0 {
			sawPuts = true
		}
		if vm.Kernel.TmemHits > 0 {
			sawHits = true
		}
	}
	if !sawPuts || !sawHits {
		t.Errorf("put/get path unexercised: puts=%v hits=%v", sawPuts, sawHits)
	}
}

// TestFig2_ArchitectureWiring verifies the three-component architecture of
// Figure 2 is live in a run: hypervisor statistics flow through the TKM to
// the MM, and MM targets flow back and are enforced.
func TestFig2_ArchitectureWiring(t *testing.T) {
	res, err := RunOne(UsememScenario, "static-alloc", 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleTicks == 0 {
		t.Error("no statistics samples flowed (hypervisor→TKM→MM path dead)")
	}
	if res.MMBatchesSent == 0 {
		t.Error("no target batches sent (MM→TKM→hypervisor path dead)")
	}
	// static-alloc's equal split must be visible as the installed target:
	// 384 MiB / 3 VMs = 128 MiB = 2048 pages of 64 KiB.
	if got := res.Series.Get("target-VM2").Last().V; got != 2048 {
		t.Errorf("installed target = %v pages, want 2048", got)
	}
	// Enforcement: no VM may hold more than target + pre-tick grabs.
	for _, vm := range []string{"VM1", "VM2", "VM3"} {
		if peak := res.Series.Get("tmem-" + vm).Max(); peak > 0.8*float64(mem.PagesIn(384*mem.MiB, PageSize)) {
			t.Errorf("%s peaked at %v pages despite static split", vm, peak)
		}
	}
}

func TestTimesAggregatesAcrossSeeds(t *testing.T) {
	tab, err := Times(UsememScenario, []string{"greedy", "static-alloc"}, []uint64{11, 23})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	row, ok := tab.Row("VM1", workload.RunLabel(512*mem.MiB))
	if !ok {
		t.Fatalf("VM1 512MiB row missing; rows: %+v", tab.Rows)
	}
	for _, pol := range []string{"greedy", "static-alloc"} {
		s := row.ByPolicy[pol]
		if s.N != 2 {
			t.Errorf("%s summary N = %d, want 2 seeds", pol, s.N)
		}
	}
	if _, err := tab.Speedup("VM1", workload.RunLabel(512*mem.MiB), "static-alloc", "greedy"); err != nil {
		t.Errorf("Speedup: %v", err)
	}
	if _, err := tab.Speedup("VM9", "x", "a", "b"); err == nil {
		t.Error("missing-row speedup did not fail")
	}
	// Rendering shouldn't crash and should carry the figure name.
	var sb strings.Builder
	if err := TimesReport(tab).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 7") {
		t.Errorf("times report missing figure name:\n%s", sb.String())
	}
}

// The headline qualitative claims of the paper's Scenario 2 (Figure 5/6):
// greedy starves the late VM3; smart-alloc(P=6%) gives VM3 a fair share
// and beats greedy's mean; no-tmem is worst.
func TestScenario2PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run scenario comparison")
	}
	mean := func(policySpec string) (all, vm3 float64) {
		res, err := RunOne(Scenario2, policySpec, 11)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		n := 0
		for _, r := range res.Runs {
			d := r.Duration().Seconds()
			sum += d
			n++
			if r.VM == "VM3" {
				vm3 = d
			}
		}
		return sum / float64(n), vm3
	}
	greedyMean, greedyVM3 := mean("greedy")
	smartMean, smartVM3 := mean("smart-alloc:P=6")
	noTmemMean, _ := mean("no-tmem")

	if !(smartMean < greedyMean) {
		t.Errorf("smart-alloc mean %.1f not below greedy %.1f", smartMean, greedyMean)
	}
	if !(greedyMean < noTmemMean) {
		t.Errorf("greedy mean %.1f not below no-tmem %.1f", greedyMean, noTmemMean)
	}
	if !(smartVM3 < greedyVM3*0.95) {
		t.Errorf("smart VM3 %.1f not clearly below greedy VM3 %.1f (starvation not relieved)", smartVM3, greedyVM3)
	}
}

// Figure 6's series shape: under greedy VM3 cannot approach a fair share
// while VM1/VM2 run; under smart-alloc(P=6%) it can.
func TestFig6SeriesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run scenario comparison")
	}
	peakDuring := func(policySpec string) float64 {
		sr, err := Series(Scenario2, policySpec, 11)
		if err != nil {
			t.Fatal(err)
		}
		// Peak of VM3's usage before VM1 finishes.
		vm1 := sr.Result.RunsFor("VM1", "")
		end := vm1[0].End.Seconds()
		s := sr.Result.Series.Get("tmem-VM3")
		peak := 0.0
		for _, p := range s.Points() {
			if p.T <= end && p.V > peak {
				peak = p.V
			}
		}
		return peak
	}
	fair := float64(mem.PagesIn(Scenario2.TmemBytes, PageSize)) / 3
	greedyPeak := peakDuring("greedy")
	smartPeak := peakDuring("smart-alloc:P=6")
	if greedyPeak > 0.5*fair {
		t.Errorf("greedy VM3 peak %.0f pages while VM1 active; expected starvation (fair=%.0f)", greedyPeak, fair)
	}
	if smartPeak < 0.6*fair {
		t.Errorf("smart VM3 peak %.0f pages; expected a fair-ish share (fair=%.0f)", smartPeak, fair)
	}
}

func TestScenarioTableRender(t *testing.T) {
	var sb strings.Builder
	if err := ScenarioTable().Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table II", "Scenario 1", "Usemem", "384MiB"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Table II output missing %q", want)
		}
	}
}

func TestRenderSeriesOutput(t *testing.T) {
	sr, err := Series(UsememScenario, "greedy", 11)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderSeries(&sb, sr); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 8", "tmem-VM1", "legend"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("series render missing %q:\n%s", want, sb.String())
		}
	}
	// no-tmem renders a placeholder.
	sr2, err := Series(UsememScenario, "no-tmem", 11)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := RenderSeries(&sb, sr2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no-tmem run") {
		t.Errorf("no-tmem placeholder missing: %q", sb.String())
	}
}

// A cluster run names its usage series after the node ("tmem-n0/VM1"); the
// chart draws them instead of calling the run tmem-less.
func TestRenderSeriesCluster(t *testing.T) {
	sr, err := Series(Cluster2Scenario, "greedy", 11)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderSeries(&sb, sr); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"tmem-n0/VM1", "tmem-n1/VM2", "tmem-n0/remote", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster chart missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "no-tmem run") {
		t.Errorf("cluster chart calls the run tmem-less:\n%s", out)
	}
}
