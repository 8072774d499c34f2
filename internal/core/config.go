// Package core assembles the full SmarTmem node (paper Figure 2): the
// hypervisor tmem backend, one simulated guest per VM running its
// workload, the TKM relay, and the user-space Memory Manager executing a
// high-level policy at the 1 Hz sampling interval. It is the paper's
// primary contribution wired together as a runnable system.
package core

import (
	"fmt"

	"smartmem/internal/durable"
	"smartmem/internal/mem"
	"smartmem/internal/policy"
	"smartmem/internal/sim"
	"smartmem/internal/tmem"
	"smartmem/internal/workload"
)

// VMSpec describes one virtual machine of a scenario (Table II's "VM
// Parameters" plus launch staging).
type VMSpec struct {
	// ID is the VM's identity towards the hypervisor (Xen domain id).
	ID tmem.VMID
	// Name labels the VM in results ("VM1", "VM2", ...).
	Name string
	// RAMBytes is the VM's configured memory.
	RAMBytes mem.Bytes
	// KernelReserveBytes is RAM consumed by the guest OS itself; zero
	// selects DefaultKernelReserveFraction of RAM.
	KernelReserveBytes mem.Bytes
	// StartDelay postpones the workload launch (Scenario 2/3: "the third
	// one launches it 30 seconds later").
	StartDelay sim.Duration
	// Workload is the application the VM executes.
	Workload workload.Workload
}

// DefaultKernelReserveFraction is the share of VM RAM attributed to the
// guest OS when KernelReserveBytes is zero. A 1 GiB Ubuntu 14.04 guest
// idles around 100–150 MiB; 12.5% reproduces that proportionally.
const DefaultKernelReserveFraction = 0.125

// Config describes a complete node run.
type Config struct {
	// PageSize is the simulation page granularity. Capacities from Table
	// II convert exactly at any power-of-two size; coarser pages simulate
	// faster. Default 64 KiB.
	PageSize mem.Bytes
	// TmemBytes is the capacity of the tmem pool ("the amount of tmem
	// enabled", §IV). Zero with TmemEnabled=true is an error.
	TmemBytes mem.Bytes
	// TmemEnabled=false runs the paper's no-tmem baseline.
	TmemEnabled bool
	// Policy is the MM policy; nil means greedy (hypervisor default).
	Policy policy.Policy
	// SampleInterval is the VIRQ/statistics cadence (paper: 1 s).
	SampleInterval sim.Duration
	// DiskReadService / DiskWriteService are per-page service times of
	// the shared host disk backing all virtual disks. Defaults: 3 ms.
	DiskReadService  sim.Duration
	DiskWriteService sim.Duration
	// DiskJitter adds ±fraction uniform service-time variation.
	DiskJitter float64
	// Seed drives every random stream of the run.
	Seed uint64
	// VMs is the scenario's machine population.
	VMs []VMSpec
	// Limit is a hard virtual-time stop guarding against runaway
	// scenarios. Default 4 h of virtual time.
	Limit sim.Duration
	// StartJitter desynchronizes VM launches by a uniform random delay in
	// [0, StartJitter), modelling boot/launcher skew (the paper's runs
	// are started by hand/scripts over ssh; identical VMs never hit the
	// hypervisor in lockstep). Default 250 ms; set negative to disable.
	StartJitter sim.Duration
	// CompressBytes, when positive, attaches a CompressedTier of that slab
	// arena budget below the local store (tier 1, ahead of any remote
	// tier): pages demoted off the frame pool compress and dedup in RAM
	// instead of costing a disk or network op. Zero disables compression.
	CompressBytes mem.Bytes
	// DurableBlob, when non-nil, attaches a durable tier (WAL + snapshots
	// into this blob store; see internal/durable) below every other tier:
	// persistent pages demoted past the RAM tiers are journaled instead of
	// failing the put. The sim opens the log with deterministic options
	// (no fsync goroutine, inline compaction), so enabling it does not
	// perturb the virtual-time schedule. Use durable.NewMemStore() for a
	// self-contained run or durable.NewDirStore(dir) to persist across runs.
	DurableBlob durable.BlobStore
	// Cleancache additionally attaches an ephemeral cleancache pool to
	// every guest (the evaluation uses frontswap only; see §VI).
	Cleancache bool
	// NonExclusiveFrontswap disables the Xen driver's exclusive-get
	// frontswap behaviour in every guest (ablation).
	NonExclusiveFrontswap bool
	// Stop, when non-nil, is a shared early-termination flag polled by
	// all workloads (Usemem scenario coordination).
	Stop *workload.Flag
	// OnMilestone receives workload milestones as (vmName, label).
	OnMilestone func(vm, label string)
}

// Validate checks the configuration the way a run would: it reports the
// first error normalize would return (bad page size, duplicate VM
// ids/names, tmem enabled with no capacity, ...) without running anything.
// NewSession-style constructors call this so a misconfigured run fails at
// construction time rather than at Run time.
func (c Config) Validate() error {
	_, err := c.normalize()
	return err
}

// normalize fills defaults and validates; returns a copy.
func (c Config) normalize() (Config, error) {
	// The no-tmem sentinel policy is the request to run the baseline:
	// honour it exactly like TmemEnabled=false, so policy.Parse("no-tmem")
	// output can be passed through uniformly.
	if c.Policy != nil && policy.IsNoTmem(c.Policy) {
		c.TmemEnabled = false
		c.Policy = nil
	}
	if c.PageSize == 0 {
		c.PageSize = 64 * mem.KiB
	}
	if c.PageSize <= 0 || c.PageSize&(c.PageSize-1) != 0 {
		return c, fmt.Errorf("core: page size %d is not a positive power of two", c.PageSize)
	}
	if c.TmemEnabled && c.TmemBytes <= 0 {
		return c, fmt.Errorf("core: tmem enabled with non-positive capacity %d", c.TmemBytes)
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = sim.Second
	}
	if c.SampleInterval < 0 {
		return c, fmt.Errorf("core: negative sample interval")
	}
	if c.DiskReadService == 0 {
		c.DiskReadService = 3 * sim.Millisecond
	}
	if c.DiskWriteService == 0 {
		c.DiskWriteService = 3 * sim.Millisecond
	}
	if c.Limit == 0 {
		c.Limit = 4 * 3600 * sim.Second
	}
	if c.StartJitter == 0 {
		c.StartJitter = 250 * sim.Millisecond
	}
	if c.StartJitter < 0 {
		c.StartJitter = 0
	}
	if c.CompressBytes < 0 {
		return c, fmt.Errorf("core: negative compressed-tier capacity %d", c.CompressBytes)
	}
	if len(c.VMs) == 0 {
		return c, fmt.Errorf("core: no VMs configured")
	}
	seen := make(map[tmem.VMID]bool)
	names := make(map[string]bool)
	for i, vm := range c.VMs {
		if vm.Name == "" {
			return c, fmt.Errorf("core: VM %d has no name", i)
		}
		if vm.Workload == nil {
			return c, fmt.Errorf("core: VM %q has no workload", vm.Name)
		}
		if vm.RAMBytes <= 0 {
			return c, fmt.Errorf("core: VM %q has non-positive RAM", vm.Name)
		}
		if seen[vm.ID] {
			return c, fmt.Errorf("core: duplicate VM id %d", vm.ID)
		}
		if names[vm.Name] {
			return c, fmt.Errorf("core: duplicate VM name %q", vm.Name)
		}
		seen[vm.ID] = true
		names[vm.Name] = true
	}
	return c, nil
}

// Normalized returns the configuration with defaults filled in and
// validation applied — exactly the config a run would execute. Run
// fingerprinting (internal/experiments) hashes the normalized form so a
// config that spells a default out explicitly fingerprints identically to
// one that leaves the field zero.
func (c Config) Normalized() (Config, error) { return c.normalize() }

// PolicyName returns the configured policy's display name, accounting for
// the no-tmem and greedy defaults.
func (c Config) PolicyName() string {
	if !c.TmemEnabled {
		return policy.NoTmemName
	}
	if c.Policy == nil {
		return policy.Greedy{}.Name()
	}
	return c.Policy.Name()
}

func (c Config) kernelReserve(vm VMSpec) mem.Pages {
	if vm.KernelReserveBytes > 0 {
		return mem.PagesIn(vm.KernelReserveBytes, c.PageSize)
	}
	return mem.Pages(DefaultKernelReserveFraction * float64(mem.PagesIn(vm.RAMBytes, c.PageSize)))
}
