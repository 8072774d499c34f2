package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"smartmem/internal/core"
)

// buildClusterN tiles a stock 2-node cluster scenario into an N-node ring
// by building it N/2 times and concatenating the node configs. Each tile
// comes from its own BuildCluster call, so every node keeps its own stop
// flag and milestone counters (the scenarios allocate them per build —
// required for correct per-tile stop behavior).
func buildClusterN(t *testing.T, slug string, seed uint64, pol string, nodes int) core.ClusterConfig {
	t.Helper()
	s, err := BySlug(slug)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := s.BuildCluster(seed, pol)
	if err != nil {
		t.Fatal(err)
	}
	per := len(cc.Nodes)
	if nodes%per != 0 {
		t.Fatalf("cannot tile %d-node scenario %s to %d nodes", per, slug, nodes)
	}
	for len(cc.Nodes) < nodes {
		next, err := s.BuildCluster(seed, pol)
		if err != nil {
			t.Fatal(err)
		}
		cc.Nodes = append(cc.Nodes, next.Nodes...)
	}
	return cc
}

// resultFingerprint renders every deterministic field of a cluster Result
// to one canonical byte string: the structured fields as a printf dump and
// the series set in its CSV form.
func resultFingerprint(t *testing.T, res *core.Result) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "policy=%s seed=%d end=%d hitlimit=%v ticks=%d batches=%d diskops=%d diskbusy=%d\n",
		res.PolicyName, res.Seed, res.EndTime, res.HitLimit,
		res.SampleTicks, res.MMBatchesSent, res.DiskOps, res.DiskBusy)
	for _, r := range res.Runs {
		fmt.Fprintf(&sb, "run %s %s %d %d\n", r.VM, r.Label, r.Start, r.End)
	}
	for _, v := range res.VMs {
		fmt.Fprintf(&sb, "vm %s %d kernel=%+v tmem=%+v\n", v.Name, v.ID, v.Kernel, v.Tmem)
	}
	for _, n := range res.Nodes {
		fmt.Fprintf(&sb, "node %s %s ticks=%d batches=%d diskops=%d diskbusy=%d",
			n.Name, n.PolicyName, n.SampleTicks, n.MMBatchesSent, n.DiskOps, n.DiskBusy)
		if n.Remote != nil {
			fmt.Fprintf(&sb, " remote=%+v", *n.Remote)
		}
		if n.Compressed != nil {
			fmt.Fprintf(&sb, " compressed=%+v", *n.Compressed)
		}
		fmt.Fprintln(&sb)
	}
	if err := res.Series.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// eventLog hashes a run's event stream as observed. RunFinished is left
// out: it carries the Result, which the result digest already covers.
type eventLog struct{ h hash.Hash }

func (l *eventLog) OnEvent(e core.Event) {
	switch e.(type) {
	case core.VMStarted, core.Milestone, core.RunCompleted, core.SampleTick, core.TargetUpdate:
		fmt.Fprintf(l.h, "%T %+v\n", e, e)
	}
}

func digestString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// clusterCellDigests runs one cluster cell and returns the sha256 of its
// resultFingerprint and of its event stream. The stream must come out in
// (time, node) order — the order the single shared kernel emitted — so it
// is hashed as observed.
func clusterCellDigests(t *testing.T, slug, pol string, nodes int, seed uint64) (string, string) {
	t.Helper()
	log := eventLog{h: sha256.New()}
	res, err := core.RunClusterWith(nil, buildClusterN(t, slug, seed, pol, nodes), &log)
	if err != nil {
		t.Fatalf("%s %s: %v", slug, pol, err)
	}
	return digestString(resultFingerprint(t, res)), hex.EncodeToString(log.h.Sum(nil))
}

// digestGrid is the pinned cell grid: the three stock cluster scenarios ×
// three policies × rings of 2, 4 and 8 nodes × three seeds.
var digestGrid = struct {
	slugs, policies []string
	nodes           []int
	seeds           []uint64
}{
	slugs:    []string{"cluster-2", "remote-heavy", "node-imbalance"},
	policies: []string{"greedy", "static-alloc", "smart-alloc:P=2"},
	nodes:    []int{2, 4, 8},
	seeds:    []uint64{7, 11, 42},
}

func digestKey(slug, pol string, nodes int, seed uint64) string {
	return fmt.Sprintf("%s/%s/nodes-%d/seed-%d", slug, pol, nodes, seed)
}

// loadPinnedDigests reads testdata/cluster_digests.txt: one line per cell,
// "<cell> <result sha256> <event-stream sha256>".
func loadPinnedDigests(t *testing.T) map[string][2]string {
	t.Helper()
	f, err := os.Open("testdata/cluster_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pinned := make(map[string][2]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("malformed digest line %q", line)
		}
		pinned[fields[0]] = [2]string{fields[1], fields[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pinned
}

// TestClusterRunsMatchPinnedDigests checks cluster runs against digests the
// deleted single-shared-kernel runtime recorded
// (testdata/cluster_digests.txt, 81 cells): the sha256 of every
// deterministic Result field and of the observer event stream as observed.
// -short keeps cluster-2 at seed 7 on 2 and 4 nodes.
func TestClusterRunsMatchPinnedDigests(t *testing.T) {
	pinned := loadPinnedDigests(t)
	g := digestGrid
	if testing.Short() {
		g.slugs, g.nodes, g.seeds = g.slugs[:1], g.nodes[:2], g.seeds[:1]
	}
	for _, slug := range g.slugs {
		for _, nodes := range g.nodes {
			for _, seed := range g.seeds {
				t.Run(fmt.Sprintf("%s/nodes-%d/seed-%d", slug, nodes, seed), func(t *testing.T) {
					// Cells are independent runs; on -race the grid is
					// most of this package's wall time.
					t.Parallel()
					for _, pol := range g.policies {
						key := digestKey(slug, pol, nodes, seed)
						want, ok := pinned[key]
						if !ok {
							t.Fatalf("no pinned digest for %s", key)
						}
						res, ev := clusterCellDigests(t, slug, pol, nodes, seed)
						if res != want[0] {
							t.Errorf("%s: result digest %s, pinned %s", key, res, want[0])
						}
						if ev != want[1] {
							t.Errorf("%s: event-stream digest %s, pinned %s", key, ev, want[1])
						}
					}
				})
			}
		}
	}
}
