// Cluster runtime: N SmarTmem nodes on one simulated timeline, each with
// its own tmem backend, guests, TKM and Memory Manager, wired peer-to-peer
// so one node's remote tmem tier lands in another node's striped store —
// the RAMster-style extension of the paper's single-node architecture
// (Magenheimer's tmem lineage, paper §II): a node whose local tmem pool is
// exhausted ships overflow pages to a peer's RAM before falling back to
// virtual-disk swap.
package core

import (
	"context"
	"fmt"
	"strings"

	"smartmem/internal/tmem"
)

// ClusterConfig describes a multi-node run. Every node is a full Config —
// its own VM population, tmem capacity and policy — and every node's random
// streams derive from node 0's seed.
type ClusterConfig struct {
	// Nodes holds one node configuration per cluster node. Node i is
	// tagged "n<i>"; its VMs appear in results and events as "n<i>/<name>".
	Nodes []Config
	// RemoteTmem wires each node's backend with a remote overflow tier
	// targeting the next node's store in ring order (node i → node
	// (i+1) mod N) over the deterministic in-process transport. Pages a
	// node cannot hold locally then land in the peer's RAM instead of the
	// guest's swap disk. Ignored with fewer than two nodes.
	RemoteTmem bool
	// Deprecated: ignored. Every run steps its node kernels in
	// (time, node) order on the calling goroutine.
	Parallel bool
}

// RemoteGuestBase is the VM-id namespace remote-tier pages are accounted
// under on the serving peer: pages shipped by node i appear in the peer's
// statistics as VM RemoteGuestBase+i, displayed as "n<i>/remote". Scenario
// VM ids must stay below this base.
const RemoteGuestBase tmem.VMID = 1000

// NormalizedNodes returns every node configuration with defaults filled in
// and validation applied, in node order — exactly the configs a cluster run
// would execute (see Config.Normalized).
func (cc ClusterConfig) NormalizedNodes() ([]Config, error) { return cc.normalize() }

// Validate checks every node configuration the way a cluster run would.
func (cc ClusterConfig) Validate() error {
	_, err := cc.normalize()
	return err
}

func (cc ClusterConfig) normalize() ([]Config, error) {
	if len(cc.Nodes) == 0 {
		return nil, fmt.Errorf("core: cluster with no nodes")
	}
	out := make([]Config, len(cc.Nodes))
	for i, cfg := range cc.Nodes {
		n, err := cfg.normalize()
		if err != nil {
			return nil, fmt.Errorf("core: node n%d: %w", i, err)
		}
		for _, vm := range n.VMs {
			if vm.ID >= RemoteGuestBase {
				return nil, fmt.Errorf("core: node n%d: VM id %d collides with the remote-guest namespace (>= %d)",
					i, vm.ID, RemoteGuestBase)
			}
		}
		out[i] = n
	}
	return out, nil
}

// RunCluster executes a cluster run to completion; see RunClusterWith.
func RunCluster(cc ClusterConfig) (*Result, error) {
	return RunClusterWith(context.Background(), cc, nil)
}

// RunClusterWith executes a multi-node simulation, streaming node-tagged
// lifecycle events to obs and honouring ctx cancellation like RunWith. The
// returned Result merges all nodes: run records and VM statistics carry
// node-prefixed names, counters are summed, and Result.Nodes breaks the
// totals down per node (including each node's remote-tier traffic).
func RunClusterWith(ctx context.Context, cc ClusterConfig, obs Observer) (*Result, error) {
	cfgs, err := cc.normalize()
	if err != nil {
		return nil, err
	}
	return run(ctx, cfgs, true, cc.RemoteTmem, obs)
}

// wireRing attaches node i's remote overflow tier to node (i+1)%N's striped
// store, skipping a node where either ring endpoint runs without tmem. The
// loopback transport serves only the peer's local tier, so a full ring
// cannot bounce one page around forever; the peer's statistics book the
// shipped pages under node i's remote-guest account.
func wireRing(nodes []*nodeRuntime) {
	for i, n := range nodes {
		peer := nodes[(i+1)%len(nodes)]
		if n.backend == nil || peer.backend == nil {
			continue
		}
		n.remote = tmem.NewRemoteTier("remote("+peer.tag+")", tmem.NewLoopback(peer.backend), RemoteGuestBase+tmem.VMID(i))
		n.backend.AttachTier(n.remote)
		peer.names.add(RemoteGuestBase+tmem.VMID(i), n.tag+"/remote")
	}
}

// clusterPolicyName joins the distinct node policy names in node order.
func clusterPolicyName(cfgs []Config) string {
	var names []string
	seen := make(map[string]bool)
	for _, cfg := range cfgs {
		if name := cfg.PolicyName(); !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	return strings.Join(names, "+")
}
