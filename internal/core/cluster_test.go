package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"smartmem/internal/mem"
	"smartmem/internal/policy"
	"smartmem/internal/sim"
	"smartmem/internal/workload"
)

// smallCluster returns a quick 2-node cluster: node 0 is oversubscribed
// (two VMs against a sliver of tmem) and node 1 has plenty of spare tmem,
// so remote overflow actually flows n0 → n1.
func smallCluster(seed uint64, pol policy.Policy, remote bool) ClusterConfig {
	mk := func(label string) workload.Workload {
		return workload.InMemoryAnalytics{
			Label:          label,
			DatasetBytes:   48 * mem.MiB,
			Passes:         2,
			CPUPerPageLoad: 400 * sim.Microsecond,
			CPUPerPagePass: 2500 * sim.Microsecond,
		}
	}
	n0 := Config{
		PageSize:    64 * mem.KiB,
		TmemBytes:   8 * mem.MiB,
		TmemEnabled: true,
		Policy:      pol,
		Seed:        seed,
		VMs: []VMSpec{
			{ID: 1, Name: "VM1", RAMBytes: 32 * mem.MiB, Workload: mk("run1")},
			{ID: 2, Name: "VM2", RAMBytes: 32 * mem.MiB, Workload: mk("run1")},
		},
	}
	n1 := Config{
		PageSize:    64 * mem.KiB,
		TmemBytes:   96 * mem.MiB,
		TmemEnabled: true,
		Policy:      pol,
		Seed:        seed,
		VMs: []VMSpec{
			{ID: 1, Name: "VM1", RAMBytes: 48 * mem.MiB, Workload: mk("run1")},
		},
	}
	return ClusterConfig{Nodes: []Config{n0, n1}, RemoteTmem: remote}
}

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

func TestClusterRunMergesNodes(t *testing.T) {
	res, err := RunCluster(smallCluster(1, nil, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.HitLimit {
		t.Fatal("cluster hit the safety limit")
	}
	if len(res.Runs) != 3 {
		t.Fatalf("runs = %+v, want 3 (two on n0, one on n1)", res.Runs)
	}
	for _, r := range res.Runs {
		if !strings.HasPrefix(r.VM, "n0/") && !strings.HasPrefix(r.VM, "n1/") {
			t.Errorf("run VM %q lacks a node prefix", r.VM)
		}
	}
	if len(res.VMs) != 3 || res.VMs[0].Name != "n0/VM1" || res.VMs[2].Name != "n1/VM1" {
		t.Errorf("VM results = %+v", res.VMs)
	}
	if len(res.Nodes) != 2 || res.Nodes[0].Name != "n0" || res.Nodes[1].Name != "n1" {
		t.Fatalf("node summaries = %+v", res.Nodes)
	}
	if got := res.Nodes[0].SampleTicks + res.Nodes[1].SampleTicks; got != res.SampleTicks {
		t.Errorf("per-node sample ticks %d != total %d", got, res.SampleTicks)
	}
	// Node-prefixed series for both nodes.
	for _, name := range []string{"tmem-n0/VM1", "tmem-n1/VM1", "n0/free-tmem", "n1/free-tmem"} {
		if !res.Series.Has(name) {
			t.Errorf("series %q missing (have %v)", name, res.Series.Names())
		}
	}
}

func TestClusterRemoteTierLandsInPeerStore(t *testing.T) {
	res, err := RunCluster(smallCluster(1, nil, true))
	if err != nil {
		t.Fatal(err)
	}
	r0 := res.Nodes[0].Remote
	if r0 == nil {
		t.Fatal("node 0 has no remote-tier stats")
	}
	if r0.PutsOK == 0 {
		t.Error("oversubscribed node 0 never overflowed to its peer")
	}
	if r0.Errors != 0 {
		t.Errorf("loopback transport errored %d times", r0.Errors)
	}
	// The peer records the shipped pages under node 0's remote-guest
	// account, so the series exists under the synthetic name.
	if !res.Series.Has("tmem-n0/remote") {
		t.Errorf("peer did not record the remote-guest series (have %v)", res.Series.Names())
	}

	// Without remote tmem, the same cluster sees no tier traffic and node 0
	// pays more disk I/O.
	plain, err := RunCluster(smallCluster(1, nil, false))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Nodes[0].Remote != nil {
		t.Error("remote stats present despite RemoteTmem=false")
	}
	if plain.Nodes[0].DiskOps <= res.Nodes[0].DiskOps {
		t.Errorf("remote tier did not reduce node 0 disk traffic: with=%d without=%d",
			res.Nodes[0].DiskOps, plain.Nodes[0].DiskOps)
	}
}

func TestClusterEventsCarryNodeTags(t *testing.T) {
	tags := map[string]bool{}
	var vmNamesSeen []string
	obs := ObserverFunc(func(e Event) {
		switch ev := e.(type) {
		case VMStarted:
			tags[ev.Node] = true
			vmNamesSeen = append(vmNamesSeen, ev.VM)
		case SampleTick:
			tags[ev.Node] = true
		}
	})
	if _, err := RunClusterWith(nil, smallCluster(1, nil, true), obs); err != nil {
		t.Fatal(err)
	}
	if !tags["n0"] || !tags["n1"] {
		t.Errorf("node tags seen = %v, want n0 and n1", tags)
	}
	for _, name := range vmNamesSeen {
		if !strings.HasPrefix(name, "n0/") && !strings.HasPrefix(name, "n1/") {
			t.Errorf("event VM %q lacks node prefix", name)
		}
	}
}

// Cluster runs must be exactly reproducible: same ClusterConfig, same
// everything.
func TestClusterDeterminism(t *testing.T) {
	a, err := RunCluster(smallCluster(7, policy.SmartAlloc{P: 2}, true))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCluster(smallCluster(7, policy.SmartAlloc{P: 2}, true))
	if err != nil {
		t.Fatal(err)
	}
	if a.EndTime != b.EndTime {
		t.Errorf("end times differ: %v vs %v", a.EndTime, b.EndTime)
	}
	if !reflect.DeepEqual(a.Runs, b.Runs) {
		t.Errorf("run records differ:\n%v\n%v", a.Runs, b.Runs)
	}
	if !reflect.DeepEqual(a.VMs, b.VMs) {
		t.Errorf("VM stats differ")
	}
	if !reflect.DeepEqual(a.Nodes, b.Nodes) {
		t.Errorf("node summaries differ:\n%+v\n%+v", a.Nodes, b.Nodes)
	}
}

// RunWith is the one-node, untagged case of the cluster run body: with the
// "n0" tag and prefix stripped, a one-node cluster (RemoteTmem is ignored
// below two nodes) must produce the same event stream and the same Result —
// every field, the series included — whether the run completes or is cut
// off by the limit.
func TestOneNodeClusterMatchesSingleNode(t *testing.T) {
	untag := func(s string) string {
		return strings.ReplaceAll(strings.ReplaceAll(s, "n0/", ""), "Node:n0", "Node:")
	}
	record := func(lines *[]string) Observer {
		return ObserverFunc(func(e Event) {
			if _, ok := e.(RunFinished); !ok {
				*lines = append(*lines, untag(fmt.Sprintf("%T %+v", e, e)))
			}
		})
	}
	var full sim.Time // the uncut run's end; the cut run stops halfway
	for _, cut := range []bool{false, true} {
		t.Run(fmt.Sprintf("cut=%v", cut), func(t *testing.T) {
			cfg := smallScenario(3, policy.StaticAlloc{}, true)
			if cut {
				cfg.Limit = sim.Duration(full / 2)
			}
			var singleEv, clusterEv []string
			single, err := RunWith(nil, cfg, record(&singleEv))
			if err != nil {
				t.Fatal(err)
			}
			clustered, err := RunClusterWith(nil, ClusterConfig{Nodes: []Config{cfg}, RemoteTmem: true}, record(&clusterEv))
			if err != nil {
				t.Fatal(err)
			}
			if !cut {
				full = single.EndTime
			} else if !single.HitLimit {
				t.Fatal("the cut run did not hit its limit")
			}
			if len(singleEv) == 0 {
				t.Fatal("no events observed")
			}
			if !reflect.DeepEqual(singleEv, clusterEv) {
				t.Errorf("event streams differ: %d vs %d events", len(singleEv), len(clusterEv))
			}
			if len(clustered.Nodes) != 1 || clustered.Nodes[0].Name != "n0" {
				t.Fatalf("node summaries = %+v", clustered.Nodes)
			}
			if single.Nodes != nil {
				t.Errorf("single-node run has node summaries: %+v", single.Nodes)
			}
			for i := range clustered.Runs {
				clustered.Runs[i].VM = untag(clustered.Runs[i].VM)
			}
			for i := range clustered.VMs {
				clustered.VMs[i].Name = untag(clustered.VMs[i].Name)
			}
			if sc, cc := seriesCSV(t, single), untag(seriesCSV(t, clustered)); sc != cc {
				t.Errorf("series differ:\nsingle:\n%s\ncluster:\n%s", sc, cc)
			}
			single.Series, clustered.Series, clustered.Nodes = nil, nil, nil
			if !reflect.DeepEqual(single, clustered) {
				t.Errorf("results differ:\nsingle:  %+v\ncluster: %+v", single, clustered)
			}
		})
	}
}

func TestClusterValidate(t *testing.T) {
	if err := (ClusterConfig{}).Validate(); err == nil {
		t.Error("empty cluster validated")
	}
	bad := smallCluster(1, nil, true)
	bad.Nodes[1].VMs[0].ID = RemoteGuestBase + 1
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "remote-guest") {
		t.Errorf("remote-guest id collision not rejected: %v", err)
	}
	bad = smallCluster(1, nil, true)
	bad.Nodes[0].VMs = nil
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "n0") {
		t.Errorf("node-indexed validation error missing: %v", err)
	}
}
