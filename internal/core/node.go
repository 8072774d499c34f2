package core

import (
	"fmt"
	"sort"

	"smartmem/internal/durable"
	"smartmem/internal/guest"
	"smartmem/internal/mem"
	"smartmem/internal/metrics"
	"smartmem/internal/policy"
	"smartmem/internal/sim"
	"smartmem/internal/tkm"
	"smartmem/internal/tmem"
	"smartmem/internal/vdisk"
	"smartmem/internal/workload"
)

// RunRecord is one completed workload run or milestone measurement.
type RunRecord struct {
	VM    string
	Label string
	Start sim.Time
	End   sim.Time
}

// Duration returns the record's elapsed virtual time.
func (r RunRecord) Duration() sim.Duration { return sim.Duration(r.End - r.Start) }

// VMResult aggregates one VM's end-of-run statistics.
type VMResult struct {
	Name   string
	ID     tmem.VMID
	Kernel guest.Stats
	Tmem   tmem.OpCounts
}

// NodeResult summarizes one node of a cluster run.
type NodeResult struct {
	// Name is the node tag ("n0", "n1", ...).
	Name string
	// PolicyName is the policy that governed the node.
	PolicyName string
	// SampleTicks / MMBatchesSent are the node's MM counters.
	SampleTicks   uint64
	MMBatchesSent uint64
	// DiskOps / DiskBusy summarize the node's host-disk traffic.
	DiskOps  uint64
	DiskBusy sim.Duration
	// Remote summarizes the node's outbound remote tmem tier (nil when the
	// cluster ran without remote tmem).
	Remote *tmem.TierStats
	// Compressed summarizes the node's compressed tier (nil when the node
	// ran without one).
	Compressed *tmem.CompressedTierStats
	// Durable summarizes the node's durable tier and its journal (nil when
	// the node ran without Config.DurableBlob).
	Durable *durable.Summary
}

// Result is the outcome of a node (or cluster) run.
type Result struct {
	// PolicyName is the policy that governed the run (or "no-tmem"). For
	// heterogeneous clusters the distinct node policies are joined with "+".
	PolicyName string
	// Seed is the run's random seed.
	Seed uint64
	// EndTime is the virtual time when the last workload finished.
	EndTime sim.Time
	// HitLimit reports whether the run was cut off by Config.Limit.
	HitLimit bool
	// Cancelled reports whether the run's context was cancelled mid-run;
	// every field then holds the partial state at cancellation time.
	Cancelled bool
	// Runs holds every reported run/milestone, in completion order. In a
	// cluster run the VM names carry their node prefix ("n0/VM1").
	Runs []RunRecord
	// Series carries the time series the paper's Figures 4/6/8/10 plot:
	// "tmem-<vm>" (pages in use), "target-<vm>" (mm_target) and
	// "free-tmem". Empty in no-tmem mode. Cluster runs prefix every name
	// with the node tag ("tmem-n0/VM1", "n0/free-tmem").
	Series *metrics.Set
	// VMs holds per-VM statistics, in config order (node order first for
	// clusters).
	VMs []VMResult
	// Nodes holds per-node summaries for cluster runs; nil single-node.
	Nodes []NodeResult
	// MMBatchesSent counts target batches the MM actually transmitted
	// (after dedup suppression; summed across nodes in a cluster).
	MMBatchesSent uint64
	// SampleTicks counts MM sampling intervals processed (summed).
	SampleTicks uint64
	// DiskOps / DiskBusy summarize host-disk traffic (summed).
	DiskOps  uint64
	DiskBusy sim.Duration
	// Compressed summarizes the compressed tier(s) when Config.CompressBytes
	// was set (summed across nodes in a cluster); nil otherwise.
	Compressed *tmem.CompressedTierStats
	// Durable summarizes the durable tier(s) and their journals when
	// Config.DurableBlob was set (summed across nodes); nil otherwise.
	Durable *durable.Summary
}

// RunsFor returns the run durations, in completion order, whose VM and
// label match (empty strings match anything).
func (r *Result) RunsFor(vm, label string) []RunRecord {
	var out []RunRecord
	for _, rec := range r.Runs {
		if (vm == "" || rec.VM == vm) && (label == "" || rec.Label == label) {
			out = append(out, rec)
		}
	}
	return out
}

// vmRuntime pairs a VM spec with its booted guest kernel.
type vmRuntime struct {
	spec   VMSpec
	kernel *guest.Kernel
}

// nodeRuntime is one assembled node: the tmem backend, its guests and their
// workloads, the host disk and the MM tick loop. The run body (run.go)
// assembles one per node, RunWith's single node included. tag/prefix are
// empty for a single-node run, which keeps its names unprefixed.
type nodeRuntime struct {
	cfg    Config
	tag    string // "n<i>" in a cluster, "" single-node
	prefix string // "n<i>/" in a cluster, "" single-node

	backend  *tmem.Backend
	compress *tmem.CompressedTier // in-RAM compressed tier (CompressBytes > 0)
	remote   *tmem.RemoteTier     // outbound overflow tier (clusters only)
	dlog     *durable.Log         // journal behind the durable tier (DurableBlob set)
	dtier    *durable.Tier        // journaling last-resort tier (DurableBlob set)
	host     *vdisk.Host
	vms      []*vmRuntime
	names    vmNames
	em       *emitter

	remaining   int
	sampleTicks uint64
	mmDedup     *policy.Dedup
}

// newNodeRuntime builds the node shell and its backend — the piece peers
// need a reference to before workloads start, so cluster tier wiring can
// happen between construction and start. A node tagged "n<i>" prefixes its
// names with "n<i>/".
func newNodeRuntime(cfg Config, tag string) (*nodeRuntime, error) {
	n := &nodeRuntime{cfg: cfg, tag: tag}
	if tag != "" {
		n.prefix = tag + "/"
	}
	if cfg.TmemEnabled {
		n.backend = tmem.NewBackend(mem.PagesIn(cfg.TmemBytes, cfg.PageSize), tmem.NewMetaStore(int(cfg.PageSize)))
		if cfg.CompressBytes > 0 {
			// Attached here, before any cluster remote-tier wiring, so the
			// compressed tier is tier 1 and demotions compress before they
			// cross the network.
			n.compress = tmem.NewCompressedTier(tmem.CompressedTierConfig{
				PageSize:      int(cfg.PageSize),
				CapacityBytes: cfg.CompressBytes,
			})
			n.backend.AttachTier(n.compress)
		}
		if cfg.DurableBlob != nil {
			// Deterministic options: no fsync ticker goroutine, compaction
			// inline on the caller — a durable run consumes the simulation's
			// random streams exactly like one without the tier.
			dlog, err := durable.Open(durable.Options{
				Blob:          cfg.DurableBlob,
				PageSize:      int(cfg.PageSize),
				Fsync:         durable.FsyncOff,
				InlineCompact: true,
			})
			if err != nil {
				return nil, fmt.Errorf("core: open durable log: %w", err)
			}
			n.dlog = dlog
			n.dtier = durable.NewTier(n.prefix+"durable", dlog)
		}
	}
	n.names = newVMNames(cfg, n.prefix)
	return n, nil
}

// start spawns the node's processes into kern. The RNG split order — host
// disk, launch jitter, then one stream per workload — is part of the
// determinism contract: every node splits the run's one root stream, in
// node order.
func (n *nodeRuntime) start(kern *sim.Kernel, rng *sim.RNG, obs Observer, res *Result, cancelled func() bool) {
	cfg := n.cfg
	if n.dtier != nil {
		// Attached last — after the compressed tier (construction) and any
		// cluster remote tier (wired between construction and start) — so
		// the journal is the true last resort: only persistent pages no RAM
		// tier could hold pay the durability cost.
		n.backend.AttachTier(n.dtier)
	}
	n.host = vdisk.NewHost(cfg.DiskReadService, cfg.DiskWriteService, cfg.DiskJitter, rng.Split())

	// Built-in figure-series recording rides the same event stream external
	// observers subscribe to. It is node-local (each node records only its
	// own sampling ticks), so n.em fans out to the node's builtins plus the
	// shared external observer.
	var builtins []Observer
	if n.backend != nil {
		builtins = append(builtins, &seriesRecorder{set: res.Series, names: n.names, prefix: n.prefix})
	}
	n.em = &emitter{}
	if len(builtins) > 0 || obs != nil {
		n.em.obs = MultiObserver(append(builtins, obs)...)
	}

	// --- guests + workloads ---
	n.vms = make([]*vmRuntime, len(cfg.VMs))
	n.remaining = len(cfg.VMs)
	jitterRNG := rng.Split()

	for i, spec := range cfg.VMs {
		spec := spec
		g := guest.NewKernel(guest.Config{
			VM:               spec.ID,
			RAMPages:         mem.PagesIn(spec.RAMBytes, cfg.PageSize),
			KernelReserve:    cfg.kernelReserve(spec),
			Backend:          n.backend,
			Frontswap:        n.backend != nil,
			Cleancache:       n.backend != nil && cfg.Cleancache,
			NonExclusiveGets: cfg.NonExclusiveFrontswap,
			Disk:             vdisk.NewDisk(spec.Name, n.host),
		})
		n.vms[i] = &vmRuntime{spec: spec, kernel: g}

		delay := sim.Duration(spec.StartDelay)
		if cfg.StartJitter > 0 {
			delay += sim.Duration(jitterRNG.Int63n(int64(cfg.StartJitter)))
		}
		wlRNG := rng.Split()
		kern.SpawnAt(n.prefix+"wl-"+spec.Name, delay, func(p *sim.Proc) {
			defer func() { n.remaining-- }()
			n.em.emit(VMStarted{
				At: p.Now(), Node: n.tag, VM: n.prefix + spec.Name,
				ID: spec.ID, Workload: spec.Workload.Name(),
			})
			wctx := &workload.Ctx{
				Proc:     p,
				Guest:    g,
				RNG:      wlRNG,
				PageSize: cfg.PageSize,
				Report: func(label string, start, end sim.Time) {
					rec := RunRecord{VM: n.prefix + spec.Name, Label: label, Start: start, End: end}
					res.Runs = append(res.Runs, rec)
					n.em.emit(RunCompleted{At: end, Node: n.tag, Record: rec})
				},
				OnMilestone: func(label string) {
					// The scenario's cross-VM coordination callback fires
					// first, with the node-local VM name (the same contract
					// the old relay-observer gave it); the emitted event
					// then carries the cluster-unique name.
					if cfg.OnMilestone != nil {
						cfg.OnMilestone(spec.Name, label)
					}
					n.em.emit(Milestone{At: p.Now(), Node: n.tag, VM: n.prefix + spec.Name, Label: label})
				},
				Stop:      cfg.Stop,
				Cancelled: cancelled,
			}
			spec.Workload.Run(wctx)
			if end := p.Now(); end > res.EndTime {
				res.EndTime = end
			}
		})
	}

	// --- MM + monitor process ---
	if n.backend != nil {
		pol := cfg.Policy
		if pol == nil {
			pol = policy.Greedy{}
		}
		n.mmDedup = policy.NewDedup(pol)
		relay := tkm.New(n.backend, n.mmDedup)

		kern.Spawn(n.prefix+"mm-tick", func(p *sim.Proc) {
			for {
				p.Sleep(cfg.SampleInterval)
				if n.remaining == 0 {
					return
				}
				ms, targets := relay.Tick()
				n.sampleTicks++
				n.em.emit(SampleTick{At: p.Now(), Node: n.tag, Seq: ms.IntervalSeq, Stats: ms, VMNames: n.names})
				for _, tu := range targets {
					n.em.emit(TargetUpdate{
						At: p.Now(), Node: n.tag, VM: n.names.name(tu.ID), ID: tu.ID, Target: tu.MMTarget,
					})
				}
			}
		})
	}
}

// finalize folds the node's end-of-run statistics into res and checks the
// backend invariants.
func (n *nodeRuntime) finalize(res *Result) error {
	for _, vr := range n.vms {
		v := VMResult{Name: n.prefix + vr.spec.Name, ID: vr.spec.ID, Kernel: vr.kernel.Stats()}
		if n.backend != nil {
			v.Tmem, _ = n.backend.Counts(vr.spec.ID)
		}
		res.VMs = append(res.VMs, v)
	}
	var batches uint64
	if n.mmDedup != nil {
		batches = uint64(n.mmDedup.Sent)
	}
	res.MMBatchesSent += batches
	res.SampleTicks += n.sampleTicks
	res.DiskOps += n.host.Ops()
	res.DiskBusy += n.host.BusyTime()

	if n.tag != "" {
		nr := NodeResult{
			Name:          n.tag,
			PolicyName:    n.cfg.PolicyName(),
			SampleTicks:   n.sampleTicks,
			MMBatchesSent: batches,
			DiskOps:       n.host.Ops(),
			DiskBusy:      n.host.BusyTime(),
		}
		if n.remote != nil {
			s := n.remote.Stats()
			nr.Remote = &s
		}
		if n.compress != nil {
			s := n.compress.CompressedStats()
			nr.Compressed = &s
		}
		if n.dtier != nil {
			s := n.dtier.Summary()
			nr.Durable = &s
		}
		res.Nodes = append(res.Nodes, nr)
	}

	if n.compress != nil {
		if res.Compressed == nil {
			res.Compressed = &tmem.CompressedTierStats{}
		}
		metrics.Add(res.Compressed, n.compress.CompressedStats())
	}

	if n.dtier != nil {
		if res.Durable == nil {
			res.Durable = &durable.Summary{}
		}
		metrics.Add(res.Durable, n.dtier.Summary())
		// Crash-style close: the journal's value is being reopenable from
		// the WAL alone, and skipping the graceful compaction keeps the
		// run's counters independent of shutdown timing. Callers holding
		// the blob store can durable.Open it again to inspect or resume.
		n.dlog.Close()
	}

	if n.backend != nil {
		if err := n.backend.CheckInvariants(); err != nil {
			return fmt.Errorf("core: post-run invariant violation: %w", err)
		}
	}
	return nil
}

func sortRuns(runs []RunRecord) {
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].End < runs[j].End })
}
