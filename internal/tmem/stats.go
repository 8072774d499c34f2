package tmem

import (
	"sort"

	"smartmem/internal/mem"
	"smartmem/internal/metrics"
)

// VMStat is one VM's entry in a statistics sample. Field names map onto the
// paper's Table I:
//
//	ID              memstats.vm[i].vm_id
//	PutsTotal       memstats.vm[i].puts_total   (this sampling interval)
//	PutsSucc        memstats.vm[i].puts_succ    (this sampling interval)
//	TmemUsed        vm_data_hyp[id].tmem_used
//	MMTarget        vm_data_hyp[id].mm_target
//	CumulPutsFailed cumulative failed puts (drives reconf-static, Alg. 3)
type VMStat struct {
	ID              VMID
	PutsTotal       uint64
	PutsSucc        uint64
	TmemUsed        mem.Pages
	MMTarget        mem.Pages
	CumulPutsFailed uint64
}

// FailedPuts returns the failed puts in the sampling interval
// (Algorithm 4, line 8: puts_total - puts_succ).
func (v VMStat) FailedPuts() uint64 {
	if v.PutsSucc > v.PutsTotal {
		return 0
	}
	return v.PutsTotal - v.PutsSucc
}

// MemStats is the statistics message the hypervisor publishes each sampling
// interval (Table I: memstats). The MM's policies consume exactly this.
type MemStats struct {
	// IntervalSeq numbers samples from 1.
	IntervalSeq uint64
	// TotalTmem is node_info.total_tmem in pages.
	TotalTmem mem.Pages
	// FreeTmem is node_info.free_tmem at sampling time.
	FreeTmem mem.Pages
	// EffectiveTmem is the capacity policies should allocate against when a
	// capacity-amplifying tier (the compressed tier) is attached: TotalTmem
	// plus the extra pages the tier can absorb at its observed compression
	// ratio. Zero means "no amplification" — read through EffectiveTotal.
	EffectiveTmem mem.Pages
	// VMs holds one entry per registered VM, ascending by ID
	// (memstats.vm_count == len(VMs)).
	VMs []VMStat
}

// VMCount returns memstats.vm_count.
func (m MemStats) VMCount() int { return len(m.VMs) }

// EffectiveTotal returns the tmem capacity policies should divide among
// VMs: EffectiveTmem when a capacity amplifier reported one, else
// TotalTmem. With compression off the two are identical, so policies
// reading EffectiveTotal behave byte-for-byte like the raw-frame versions.
func (m MemStats) EffectiveTotal() mem.Pages {
	if m.EffectiveTmem > m.TotalTmem {
		return m.EffectiveTmem
	}
	return m.TotalTmem
}

// Find returns the stats entry for a VM, if present.
func (m MemStats) Find(id VMID) (VMStat, bool) {
	for _, v := range m.VMs {
		if v.ID == id {
			return v, true
		}
	}
	return VMStat{}, false
}

// TargetUpdate is one element of the MM's policy output (Table I: mm_out[i]).
type TargetUpdate struct {
	ID       VMID      // mm_out[i].vm_id
	MMTarget mem.Pages // mm_out[i].mm_target
}

// capacityAmplifier is an optional Tier refinement: a tier that can absorb
// pages beyond the node's raw frame count (CompressedTier) reports how many
// extra pages it can hold, and Sample folds the amplified total into
// MemStats.EffectiveTmem.
type capacityAmplifier interface {
	EffectiveExtraPages() mem.Pages
}

// Sample snapshots the statistics of Table I and begins the next sampling
// interval: the interval counts (puts_total, puts_succ) are the cumulative
// counts minus those of the previous sample. The hypervisor invokes this
// once per second of virtual time and pushes the result through the TKM to
// the MM.
//
// The put counters are summed stripe by stripe, each under its stripe's
// lock, which a sample holds for one pass over the VMs. Every stripe's
// share is exact, so a VM's puts_succ never exceeds its puts_total in the
// cumulative counts; on a concurrently mutated backend the sample as a
// whole is only approximately simultaneous, which is the same tolerance
// the paper's 1 Hz VIRQ snapshot has.
func (b *Backend) Sample(seq uint64) MemStats {
	b.sampleMu.Lock()
	defer b.sampleMu.Unlock()
	b.vmMu.RLock()
	accounts := make([]*vmAccount, 0, len(b.vms))
	for _, a := range b.vms {
		accounts = append(accounts, a)
	}
	b.vmMu.RUnlock()

	ms := MemStats{
		IntervalSeq: seq,
		TotalTmem:   b.totalPages,
		FreeTmem:    b.FreePages(),
		VMs:         make([]VMStat, 0, len(accounts)),
	}
	// Fold in capacity amplification from attached tiers (the compressed
	// tier): policies then allocate against compressed capacity, not raw
	// frames. tiersView is the immutable no-lock snapshot.
	for _, t := range b.tiersView {
		if amp, ok := t.(capacityAmplifier); ok {
			if extra := amp.EffectiveExtraPages(); extra > 0 {
				ms.EffectiveTmem = ms.TotalTmem + extra
			}
		}
	}
	for _, a := range accounts {
		ms.VMs = append(ms.VMs, VMStat{ID: a.id})
	}
	for i, sh := range b.shards {
		sh.mu.Lock()
		for j, a := range accounts {
			ms.VMs[j].PutsTotal += a.counts[i].putsTotal
			ms.VMs[j].PutsSucc += a.counts[i].putsSucc
		}
		sh.mu.Unlock()
	}
	for j, a := range accounts {
		v := &ms.VMs[j]
		v.CumulPutsFailed = v.PutsTotal - v.PutsSucc
		v.PutsTotal, a.sampledTotal = v.PutsTotal-a.sampledTotal, v.PutsTotal
		v.PutsSucc, a.sampledSucc = v.PutsSucc-a.sampledSucc, v.PutsSucc
		v.TmemUsed = mem.Pages(a.tmemUsed.Load())
		v.MMTarget = a.target()
	}
	sort.Slice(ms.VMs, func(i, j int) bool { return ms.VMs[i].ID < ms.VMs[j].ID })
	return ms
}

// ApplyTargets installs a batch of MM policy outputs.
func (b *Backend) ApplyTargets(targets []TargetUpdate) {
	for _, t := range targets {
		b.SetTarget(t.ID, t.MMTarget)
	}
}

// OpCounts is a cumulative per-VM operation summary for reports and tests;
// Fields says what each count is.
type OpCounts struct {
	ID         VMID
	PutsTotal  uint64
	PutsSucc   uint64
	GetsTotal  uint64
	GetsHit    uint64
	Flushes    uint64
	EphEvicted uint64
}

// Fields lists the counts, without ID (metrics.Block).
func (c *OpCounts) Fields(v metrics.Visitor) {
	v.Uint64("puts_total", "Puts the VM issued.", metrics.Counter, &c.PutsTotal)
	v.Uint64("puts_succ", "Puts the store accepted.", metrics.Counter, &c.PutsSucc)
	v.Uint64("gets_total", "Gets the VM issued.", metrics.Counter, &c.GetsTotal)
	v.Uint64("gets_hit", "Gets that found the page.", metrics.Counter, &c.GetsHit)
	v.Uint64("flushes", "Pages the VM's flushes invalidated.", metrics.Counter, &c.Flushes)
	v.Uint64("eph_evicted", "Ephemeral pages evicted from the VM.", metrics.Counter, &c.EphEvicted)
}

// Counts returns cumulative operation counts for a VM.
func (b *Backend) Counts(vm VMID) (OpCounts, bool) {
	a := b.account(vm)
	if a == nil {
		return OpCounts{}, false
	}
	var c vmCounts
	for i, sh := range b.shards {
		sh.mu.Lock()
		c.add(&a.counts[i])
		sh.mu.Unlock()
	}
	return OpCounts{
		ID:         a.id,
		PutsTotal:  c.putsTotal,
		PutsSucc:   c.putsSucc,
		GetsTotal:  c.getsTotal,
		GetsHit:    c.getsHit,
		Flushes:    c.flushes,
		EphEvicted: c.ephEvicted,
	}, true
}
