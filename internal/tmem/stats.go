package tmem

import (
	"encoding/binary"
	"fmt"
	"sort"

	"smartmem/internal/mem"
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

// Sample snapshots the statistics of Table I and resets the interval
// counters (puts_total, puts_succ), beginning the next sampling interval.
// The hypervisor invokes this once per second of virtual time and pushes
// the result through the TKM to the MM.
//
// The snapshot is assembled by aggregating the striped atomic counters —
// it takes no shard lock, so sampling never stalls the put/get/flush hot
// path. Each interval counter is drained with an atomic swap; on a
// concurrently mutated backend the per-VM values are each exact while the
// sample as a whole is only approximately simultaneous, which is the same
// tolerance the paper's 1 Hz VIRQ snapshot has.
func (b *Backend) Sample(seq uint64) MemStats {
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
		ms.VMs = append(ms.VMs, VMStat{
			ID:              a.id,
			PutsTotal:       a.putsTotal.Swap(0),
			PutsSucc:        a.putsSucc.Swap(0),
			TmemUsed:        mem.Pages(a.tmemUsed.Load()),
			MMTarget:        a.target(),
			CumulPutsFailed: a.cumulPutsFailed(),
		})
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

// OpCounts is a cumulative per-VM operation summary for reports and tests.
type OpCounts struct {
	ID         VMID
	PutsTotal  uint64
	PutsSucc   uint64
	GetsTotal  uint64
	GetsHit    uint64
	Flushes    uint64
	EphEvicted uint64
}

// Counts returns cumulative operation counts for a VM.
func (b *Backend) Counts(vm VMID) (OpCounts, bool) {
	a := b.account(vm)
	if a == nil {
		return OpCounts{}, false
	}
	return OpCounts{
		ID:         a.id,
		PutsTotal:  a.cumulPutsTotal.Load(),
		PutsSucc:   a.cumulPutsSucc.Load(),
		GetsTotal:  a.cumulGetsTotal.Load(),
		GetsHit:    a.cumulGetsHit.Load(),
		Flushes:    a.cumulFlushes.Load(),
		EphEvicted: a.cumulEphEvicted.Load(),
	}, true
}

// --- Wire encoding (used by the TKM socket transport) ---

// AppendWire appends a length-delimited big-endian encoding of m.
func (m MemStats) AppendWire(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, m.IntervalSeq)
	b = binary.BigEndian.AppendUint64(b, uint64(m.TotalTmem))
	b = binary.BigEndian.AppendUint64(b, uint64(m.FreeTmem))
	b = binary.BigEndian.AppendUint64(b, uint64(m.EffectiveTmem))
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.VMs)))
	for _, v := range m.VMs {
		b = binary.BigEndian.AppendUint32(b, uint32(v.ID))
		b = binary.BigEndian.AppendUint64(b, v.PutsTotal)
		b = binary.BigEndian.AppendUint64(b, v.PutsSucc)
		b = binary.BigEndian.AppendUint64(b, uint64(v.TmemUsed))
		b = binary.BigEndian.AppendUint64(b, uint64(v.MMTarget))
		b = binary.BigEndian.AppendUint64(b, v.CumulPutsFailed)
	}
	return b
}

const memStatsHeaderSize = 8 + 8 + 8 + 8 + 4
const vmStatWireSize = 4 + 8*5

// MemStatsFromWire decodes a MemStats encoded with AppendWire and returns
// the number of bytes consumed.
func MemStatsFromWire(b []byte) (MemStats, int, error) {
	if len(b) < memStatsHeaderSize {
		return MemStats{}, 0, fmt.Errorf("tmem: memstats encoding too short: %d bytes", len(b))
	}
	m := MemStats{
		IntervalSeq:   binary.BigEndian.Uint64(b[0:8]),
		TotalTmem:     mem.Pages(binary.BigEndian.Uint64(b[8:16])),
		FreeTmem:      mem.Pages(binary.BigEndian.Uint64(b[16:24])),
		EffectiveTmem: mem.Pages(binary.BigEndian.Uint64(b[24:32])),
	}
	n := int(binary.BigEndian.Uint32(b[32:36]))
	off := memStatsHeaderSize
	if len(b) < off+n*vmStatWireSize {
		return MemStats{}, 0, fmt.Errorf("tmem: memstats encoding truncated: want %d VM entries", n)
	}
	m.VMs = make([]VMStat, n)
	for i := 0; i < n; i++ {
		v := &m.VMs[i]
		v.ID = VMID(binary.BigEndian.Uint32(b[off : off+4]))
		v.PutsTotal = binary.BigEndian.Uint64(b[off+4 : off+12])
		v.PutsSucc = binary.BigEndian.Uint64(b[off+12 : off+20])
		v.TmemUsed = mem.Pages(binary.BigEndian.Uint64(b[off+20 : off+28]))
		v.MMTarget = mem.Pages(binary.BigEndian.Uint64(b[off+28 : off+36]))
		v.CumulPutsFailed = binary.BigEndian.Uint64(b[off+36 : off+44])
		off += vmStatWireSize
	}
	return m, off, nil
}

// AppendTargetsWire encodes a policy-output batch (mm_out) for the wire.
func AppendTargetsWire(b []byte, ts []TargetUpdate) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(ts)))
	for _, t := range ts {
		b = binary.BigEndian.AppendUint32(b, uint32(t.ID))
		b = binary.BigEndian.AppendUint64(b, uint64(t.MMTarget))
	}
	return b
}

// TargetsFromWire decodes a batch encoded by AppendTargetsWire and returns
// the number of bytes consumed.
func TargetsFromWire(b []byte) ([]TargetUpdate, int, error) {
	if len(b) < 4 {
		return nil, 0, fmt.Errorf("tmem: targets encoding too short")
	}
	n := int(binary.BigEndian.Uint32(b[0:4]))
	const rec = 4 + 8
	if len(b) < 4+n*rec {
		return nil, 0, fmt.Errorf("tmem: targets encoding truncated: want %d entries", n)
	}
	ts := make([]TargetUpdate, n)
	off := 4
	for i := 0; i < n; i++ {
		ts[i].ID = VMID(binary.BigEndian.Uint32(b[off : off+4]))
		ts[i].MMTarget = mem.Pages(binary.BigEndian.Uint64(b[off+4 : off+12]))
		off += rec
	}
	return ts, off, nil
}
