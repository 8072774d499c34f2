// Package guest models the memory-management side of a guest Linux kernel
// running inside one VM: a unified LRU over resident pages (standing in for
// the kernel's Pageframe Replacement Algorithm), demand paging, swap, and
// the two tmem hooks — frontswap for anonymous pages and cleancache for
// clean file-backed pages (paper §II-B, Figure 1).
//
// The model is execution-driven: workloads call Access/Touch/ReadFile from
// a sim.Proc, and the kernel charges virtual time for RAM hits, zero-fill
// faults, tmem hypercalls and disk I/O, yielding to the simulation kernel
// every Quantum of accumulated time so the 1 Hz manager tick interleaves
// realistically with memory traffic.
//
// Copy validity follows Linux swap-cache semantics, which drive the tmem
// capacity dynamics the paper's figures show:
//
//   - Evicting a dirty anonymous page stores it (frontswap put, falling
//     back to a swap write on E_TMEM).
//   - Swapping a page back in (frontswap get / disk read) leaves the
//     stored copy valid; the page is clean in RAM.
//   - A clean page with a valid stored copy is evicted for free (drop).
//   - Writing a page invalidates its stored copies (frontswap flush /
//     swap-slot free): tmem usage declines at the workload's write rate,
//     which is why a VM's tmem share drains only gradually after its
//     target is cut (paper §III-B: targets never force reclaim).
package guest

import (
	"fmt"
	"math"

	"smartmem/internal/mem"
	"smartmem/internal/sim"
	"smartmem/internal/tmem"
	"smartmem/internal/vdisk"
)

// PageID identifies an anonymous page within the VM's address space.
type PageID uint64

// gpage is the kernel's per-page bookkeeping. Anonymous pages are slots of
// the dense page table (see pageTable); file pages are allocated one by one.
type gpage struct {
	present  bool // anonymous slots: the page exists (touched and not freed)
	resident bool
	dirty    bool // modified since the last stored copy was made
	inTmem   bool // a copy believed valid in tmem
	onDisk   bool // a copy valid on the swap device / backing file

	file bool // file-backed (clean, cleancache-eligible) vs anonymous
	anon PageID
	obj  tmem.ObjectID  // file pages: file identity
	idx  tmem.PageIndex // file pages: offset in file

	prev, next *gpage // resident LRU links (valid while resident)
}

type fileKey struct {
	obj tmem.ObjectID
	idx tmem.PageIndex
}

// CostModel carries the virtual-time costs of the memory hierarchy. Use
// DefaultCosts to derive a page-size-consistent model.
type CostModel struct {
	// RAMTouch is charged per resident page touched (cache-speed streaming
	// over one page).
	RAMTouch sim.Duration
	// MinorFault is a zero-fill demand fault (no I/O).
	MinorFault sim.Duration
	// TmemOp is one put or get hypercall including the page copy.
	TmemOp sim.Duration
	// TmemFlush is a flush hypercall (no page copy).
	TmemFlush sim.Duration
	// Quantum bounds how much virtual time may accumulate before the
	// workload yields to the simulator.
	Quantum sim.Duration

	// Swap-thrash amplification. Sustained swap storms cost more per
	// fault than occasional faults: page reclaim scanning, swap readahead
	// pollution and writeback interference grow with pressure (this is
	// why a tmem-starved VM degrades superlinearly, not just by raw disk
	// latency). Each disk fault is charged an extra
	//
	//	ThrashMaxAmp × r² / (r² + ThrashHalfRate²)
	//
	// multiple of its I/O time, where r is the VM's exponentially
	// averaged disk-fault rate (faults/s). The quadratic sigmoid leaves
	// moderate swapping essentially unamplified and saturates for
	// sustained storms. Zero ThrashMaxAmp disables amplification.
	ThrashMaxAmp float64
	// ThrashHalfRate is the fault rate at which half of ThrashMaxAmp
	// applies.
	ThrashHalfRate float64
	// IOOverhead is the per-disk-operation CPU cost inside the guest and
	// virtualization stack (block layer, virtio/emulated controller,
	// nested hypervisor exits). It is charged to the faulting VM on top
	// of the device time and does not occupy the shared spindle.
	IOOverhead sim.Duration
}

// DefaultCosts returns a cost model scaled to pageSize. The constants are
// anchored at a 4 KiB page: ~0.2 µs to stream a page from DRAM, 2 µs for a
// zero-fill fault, 10 µs for a tmem hypercall with page copy (paper:
// "page-copy–based interface"), 2 µs for a flush.
func DefaultCosts(pageSize mem.Bytes) CostModel {
	scale := float64(pageSize) / float64(4*mem.KiB)
	return CostModel{
		RAMTouch:       sim.Duration(0.2 * scale * float64(sim.Microsecond)),
		MinorFault:     sim.Duration((1 + scale) * float64(sim.Microsecond)),
		TmemOp:         sim.Duration((6 + 4*scale) * float64(sim.Microsecond)),
		TmemFlush:      2 * sim.Microsecond,
		Quantum:        sim.Millisecond,
		ThrashMaxAmp:   2.2,
		ThrashHalfRate: 130,
		IOOverhead:     500 * sim.Microsecond,
	}
}

// Config assembles a guest kernel.
type Config struct {
	// VM is this guest's identity towards the hypervisor.
	VM tmem.VMID
	// RAMPages is the VM's configured memory (Table II's "VM Parameters").
	RAMPages mem.Pages
	// KernelReserve is RAM the guest OS itself consumes; the application
	// working set competes for RAMPages-KernelReserve frames.
	KernelReserve mem.Pages
	// Backend is the hypervisor tmem backend; nil disables tmem entirely
	// (the paper's "no-tmem" configuration).
	Backend *tmem.Backend
	// Frontswap enables the anonymous-page tmem hook (paper evaluation
	// mode).
	Frontswap bool
	// Cleancache enables the clean-file-page tmem hook.
	Cleancache bool
	// Disk is the VM's swap/backing device.
	Disk *vdisk.Disk
	// NonExclusiveGets disables exclusive frontswap loads. The Xen tmem
	// driver runs frontswap with exclusive gets (a successful load also
	// invalidates the tmem copy and redirties the page, avoiding
	// double-caching); that is the default here, where the frontswap pool
	// is created with exclusive gets and a load is one call. Non-exclusive
	// loads keep the copy valid until the page is dirtied, and are
	// provided as an ablation (BenchmarkAblation_ExclusiveGet).
	NonExclusiveGets bool
	// Costs is the timing model (zero value replaced by DefaultCosts of
	// the backend page size, or 4 KiB when no backend).
	Costs CostModel
}

// Stats counts the kernel's memory-management events.
type Stats struct {
	Touches      uint64 // total page touches
	MinorFaults  uint64 // zero-fill
	TmemHits     uint64 // refaults served from tmem
	TmemMisses   uint64 // refaults that had to go to disk after tmem miss
	DiskReads    uint64 // swap-ins / file reads from disk
	DiskWrites   uint64 // swap-outs to disk
	Evictions    uint64 // pages pushed out of RAM
	CleanEvicts  uint64 // evictions satisfied by dropping a clean page
	PutsOK       uint64 // successful frontswap/cleancache puts
	PutsFailed   uint64 // failed puts (fell back to disk for anon pages)
	TmemFlushes  uint64 // explicit invalidations issued
	FreedPages   uint64 // pages released via Free
	WaitedOnDisk sim.Duration
}

// Kernel is one guest's memory-management state. It is not goroutine-safe;
// exactly one workload process drives each kernel, which matches the
// 1-vCPU VMs of every paper scenario.
type Kernel struct {
	cfg    Config
	vm     tmem.VMID
	fsPool tmem.PoolID // frontswap pool (persistent)
	ccPool tmem.PoolID // cleancache pool (ephemeral)

	anon  pageTable
	files map[fileKey]*gpage
	lru   gpage // sentinel; lru.next is coldest resident page

	resident mem.Pages
	usable   mem.Pages

	accum sim.Duration // virtual time accrued since last yield
	stats Stats

	// Swap-thrash pressure tracking (see CostModel.ThrashMaxAmp).
	faultRate float64  // EWMA disk faults/s
	lastFault sim.Time // time of the previous disk fault
}

// NewKernel boots a guest kernel and, when tmem is enabled, registers the
// VM and creates its pools (the paper's "module initialization" step).
func NewKernel(cfg Config) *Kernel {
	if cfg.RAMPages <= 0 {
		panic("guest: non-positive RAM size")
	}
	if cfg.KernelReserve < 0 || cfg.KernelReserve >= cfg.RAMPages {
		panic(fmt.Sprintf("guest: kernel reserve %d outside [0, %d)", cfg.KernelReserve, cfg.RAMPages))
	}
	if cfg.Disk == nil {
		panic("guest: nil disk")
	}
	if cfg.Costs == (CostModel{}) {
		ps := 4 * mem.KiB
		if cfg.Backend != nil {
			ps = cfg.Backend.PageSize()
		}
		cfg.Costs = DefaultCosts(ps)
	}
	if cfg.Costs.Quantum <= 0 {
		cfg.Costs.Quantum = sim.Millisecond
	}
	k := &Kernel{
		cfg:    cfg,
		vm:     cfg.VM,
		fsPool: tmem.InvalidPool,
		ccPool: tmem.InvalidPool,
		files:  make(map[fileKey]*gpage),
		usable: cfg.RAMPages - cfg.KernelReserve,
	}
	k.lru.prev = &k.lru
	k.lru.next = &k.lru
	if cfg.Backend != nil {
		cfg.Backend.RegisterVM(cfg.VM)
		switch {
		case cfg.Frontswap && cfg.NonExclusiveGets:
			k.fsPool = cfg.Backend.NewPool(cfg.VM, tmem.Persistent)
		case cfg.Frontswap:
			k.fsPool = cfg.Backend.NewExclusivePool(cfg.VM)
		}
		if cfg.Cleancache {
			k.ccPool = cfg.Backend.NewPool(cfg.VM, tmem.Ephemeral)
		}
	}
	return k
}

// VM returns the guest's VM identity.
func (k *Kernel) VM() tmem.VMID { return k.vm }

// UsablePages returns the frames available to the application.
func (k *Kernel) UsablePages() mem.Pages { return k.usable }

// Resident returns the application pages currently in RAM.
func (k *Kernel) Resident() mem.Pages { return k.resident }

// Stats returns a copy of the event counters.
func (k *Kernel) Stats() Stats { return k.stats }

// --- LRU helpers ---

func (k *Kernel) lruPush(g *gpage) {
	g.prev = k.lru.prev
	g.next = &k.lru
	k.lru.prev.next = g
	k.lru.prev = g
}

func (k *Kernel) lruRemove(g *gpage) {
	g.prev.next = g.next
	g.next.prev = g.prev
	g.prev, g.next = nil, nil
}

func (k *Kernel) lruTouch(g *gpage) {
	k.lruRemove(g)
	k.lruPush(g)
}

// --- time accounting ---

// charge accrues virtual time and yields the process when the quantum is
// exceeded.
func (k *Kernel) charge(p *sim.Proc, d sim.Duration) {
	k.accum += d
	if k.accum >= k.cfg.Costs.Quantum {
		k.flush(p)
	}
}

// flush yields all accrued time to the simulator.
func (k *Kernel) flush(p *sim.Proc) {
	if k.accum > 0 {
		d := k.accum
		k.accum = 0
		p.Sleep(d)
	}
}

// chargeN charges d of virtual time n times, reproducing exactly the
// accumulate/yield points a loop of n charge calls would produce (a
// resident run must not move yield points, or event interleaving — and
// with it every golden — would change). Between charges accum < Quantum
// always holds, so the step arithmetic below never sees a non-positive
// room.
func (k *Kernel) chargeN(p *sim.Proc, d sim.Duration, n mem.Pages) {
	if d <= 0 {
		return
	}
	q := k.cfg.Costs.Quantum
	for n > 0 {
		// Number of charges until accum reaches the quantum.
		steps := mem.Pages((q - k.accum + d - 1) / sim.Duration(d))
		if steps > n {
			steps = n
		}
		k.accum += sim.Duration(steps) * d
		n -= steps
		if k.accum >= q {
			k.flush(p)
		}
	}
}

// Idle makes the guest sleep for d of virtual time after settling accrued
// work (used for the "sleep for 5 seconds" steps in Table II).
func (k *Kernel) Idle(p *sim.Proc, d sim.Duration) {
	k.flush(p)
	p.Sleep(d)
}

// now returns the kernel's effective current time including accrued work,
// used to order disk requests accurately between yields.
func (k *Kernel) now(p *sim.Proc) sim.Time {
	return p.Now() + sim.Time(k.accum)
}

// thrashRateTau is the EWMA window of the disk-fault rate estimator.
const thrashRateTau = 2 * sim.Second

// chargeDiskFault accounts one disk I/O of the given sojourn time plus the
// reclaim/readahead overhead that grows with sustained fault pressure.
func (k *Kernel) chargeDiskFault(p *sim.Proc, dur sim.Duration) {
	c := &k.cfg.Costs
	dur += c.IOOverhead
	k.stats.WaitedOnDisk += dur
	k.charge(p, dur)

	if c.ThrashMaxAmp <= 0 {
		return
	}
	now := k.now(p)
	if k.lastFault > 0 && now > k.lastFault {
		dt := float64(now-k.lastFault) / float64(sim.Second)
		decay := math.Exp(-dt * float64(sim.Second) / float64(thrashRateTau))
		k.faultRate = k.faultRate*decay + (1-decay)/dt
	} else if k.lastFault == 0 {
		k.faultRate = 0
	}
	k.lastFault = now
	if k.faultRate > 0 {
		r2 := k.faultRate * k.faultRate
		h2 := c.ThrashHalfRate * c.ThrashHalfRate
		amp := c.ThrashMaxAmp * r2 / (r2 + h2)
		k.charge(p, sim.Duration(amp*float64(dur)))
	}
}

// --- keys ---

func anonKey(pool tmem.PoolID, page PageID) tmem.Key {
	return tmem.Key{Pool: pool, Object: tmem.ObjectID(page >> 32), Index: tmem.PageIndex(page)}
}

func (k *Kernel) fileTmemKey(fk fileKey) tmem.Key {
	return tmem.Key{Pool: k.ccPool, Object: fk.obj, Index: fk.idx}
}

// --- copy invalidation ---

// invalidateCopies drops a page's stored copies after it is dirtied
// (swap-slot free + frontswap/cleancache invalidate in Linux terms).
func (k *Kernel) invalidateCopies(p *sim.Proc, g *gpage) {
	if g.inTmem {
		key := anonKey(k.fsPool, g.anon)
		if g.file {
			key = k.fileTmemKey(fileKey{g.obj, g.idx})
		}
		k.charge(p, k.cfg.Costs.TmemFlush)
		k.cfg.Backend.FlushPage(key)
		k.stats.TmemFlushes++
		g.inTmem = false
	}
	if !g.file {
		g.onDisk = false // swap slot freed, no I/O
	}
}

// --- eviction (the PFRA) ---

// makeRoom evicts the least-recently-used resident page if RAM is full.
func (k *Kernel) makeRoom(p *sim.Proc) {
	if k.resident < k.usable {
		return
	}
	victim := k.lru.next
	if victim == &k.lru {
		panic("guest: resident count positive but LRU empty")
	}
	k.lruRemove(victim)
	victim.resident = false
	k.resident--
	k.stats.Evictions++

	if victim.file {
		// File pages are clean (read-only files in this model): offer to
		// cleancache unless a copy is already there, else just drop —
		// the backing file still has the data.
		if !victim.inTmem && k.ccPool != tmem.InvalidPool {
			k.charge(p, k.cfg.Costs.TmemOp)
			if k.cfg.Backend.Put(k.fileTmemKey(fileKey{victim.obj, victim.idx}), nil) == tmem.STmem {
				k.stats.PutsOK++
				victim.inTmem = true
			} else {
				k.stats.PutsFailed++
			}
		}
		if !victim.inTmem {
			k.stats.CleanEvicts++
		}
		return
	}

	if !victim.dirty && (victim.inTmem || victim.onDisk) {
		// Clean anonymous page with a valid stored copy: free eviction.
		k.stats.CleanEvicts++
		return
	}

	// Dirty anonymous page: must be preserved. Try frontswap first
	// (Figure 1's put path), then the swap device.
	if k.fsPool != tmem.InvalidPool {
		k.charge(p, k.cfg.Costs.TmemOp)
		if k.cfg.Backend.Put(anonKey(k.fsPool, victim.anon), nil) == tmem.STmem {
			k.stats.PutsOK++
			victim.inTmem = true
			victim.dirty = false
			return
		}
		k.stats.PutsFailed++
	}
	d := k.cfg.Disk.Write(k.now(p))
	k.stats.DiskWrites++
	k.chargeDiskFault(p, d)
	victim.onDisk = true
	victim.dirty = false
}

// --- anonymous-page interface ---

// Touch accesses one anonymous page. write=true models a store: it dirties
// the page and invalidates any stored copies.
func (k *Kernel) Touch(p *sim.Proc, page PageID, write bool) {
	k.stats.Touches++
	g := k.anon.lookup(page)
	if g != nil && g.resident {
		k.lruTouch(g)
		k.charge(p, k.cfg.Costs.RAMTouch)
		if write && !g.dirty {
			g.dirty = true
			k.invalidateCopies(p, g)
		}
		return
	}
	// Fault path.
	k.makeRoom(p)
	if g == nil {
		// First touch: zero-fill; the page is dirty by construction.
		g = k.anon.insert(page)
		g.dirty = true
		k.stats.MinorFaults++
		k.charge(p, k.cfg.Costs.MinorFault)
	} else {
		switch {
		case g.inTmem:
			// Frontswap load. An exclusive get (Xen driver default) also
			// invalidates the copy, inside the one call, so it is charged
			// the flush too — before the call, so that a yield the charge
			// makes still finds the page held, as a separate flush would.
			k.charge(p, k.cfg.Costs.TmemOp)
			if !k.cfg.NonExclusiveGets {
				k.charge(p, k.cfg.Costs.TmemFlush)
			}
			if k.cfg.Backend.Get(anonKey(k.fsPool, page), nil) == tmem.STmem {
				k.stats.TmemHits++
				if k.cfg.NonExclusiveGets {
					// Swap-cache semantics: the copy remains valid until
					// the page is dirtied.
					g.dirty = false
				} else {
					// The copy is gone; the page stays dirty.
					k.stats.TmemFlushes++
					g.inTmem = false
					g.dirty = true
				}
			} else {
				// Persistent pools cannot lose pages; reaching this means
				// kernel state is out of sync with the hypervisor.
				panic(fmt.Sprintf("guest: frontswap page %d lost by persistent pool", page))
			}
		case g.onDisk:
			k.stats.DiskReads++
			d := k.cfg.Disk.Read(k.now(p))
			k.chargeDiskFault(p, d)
			g.dirty = false
		default:
			panic(fmt.Sprintf("guest: non-resident clean page %d has no stored copy", page))
		}
	}
	g.resident = true
	k.lruPush(g)
	k.resident++
	k.charge(p, k.cfg.Costs.RAMTouch)
	if write && !g.dirty {
		g.dirty = true
		k.invalidateCopies(p, g)
	}
}

// Access touches count consecutive anonymous pages starting at first.
// Consecutive resident pages are handled as one run that batches its LRU
// touches and time accounting (chargeN); every fault goes through Touch, one
// tmem call per page as the paper's frontswap hook makes. Observable
// behaviour (stats, backend operation order, yield points) is identical to
// a per-page Touch loop.
func (k *Kernel) Access(p *sim.Proc, first PageID, count mem.Pages, write bool) {
	pg := first
	for i := mem.Pages(0); i < count; {
		// Resident run: LRU touch + time accounting only. The write case
		// rides along when the page is already dirty (nothing to
		// invalidate), exactly as Touch would conclude.
		n := mem.Pages(0)
		for i < count {
			g := k.anon.lookup(pg)
			if g == nil || !g.resident || (write && !g.dirty) {
				break
			}
			k.lruTouch(g)
			n++
			i++
			pg++
		}
		if n > 0 {
			k.stats.Touches += uint64(n)
			k.chargeN(p, k.cfg.Costs.RAMTouch, n)
			continue
		}
		k.Touch(p, pg, write)
		i++
		pg++
	}
}

// Free releases count consecutive anonymous pages: resident frames return
// to the kernel, frontswap copies are invalidated (flush hypercalls), swap
// slots are dropped. This is the munmap/exit path that lets tmem usage fall
// when an application run completes (visible in the paper's Figures 4–10
// as capacity released between runs).
func (k *Kernel) Free(p *sim.Proc, first PageID, count mem.Pages) {
	for i := mem.Pages(0); i < count; i++ {
		page := first + PageID(i)
		g := k.anon.lookup(page)
		if g == nil {
			continue
		}
		if g.resident {
			k.lruRemove(g)
			k.resident--
		}
		k.invalidateCopies(p, g)
		k.anon.remove(g)
		k.stats.FreedPages++
	}
	k.flush(p)
}

// --- file-page interface (cleancache) ---

// ReadFile reads count consecutive pages of the file identified by obj,
// starting at page idx. Pages enter the unified LRU as clean file pages;
// on eviction they are offered to cleancache, and refaults consult
// cleancache before paying for disk. Like Access, consecutive resident
// pages are served as one run with batched accounting, and every fault
// goes through touchFile, one cleancache call per page.
func (k *Kernel) ReadFile(p *sim.Proc, obj tmem.ObjectID, idx tmem.PageIndex, count mem.Pages) {
	for i := mem.Pages(0); i < count; {
		n := mem.Pages(0)
		for i < count {
			g, ok := k.files[fileKey{obj, idx + tmem.PageIndex(i)}]
			if !ok || !g.resident {
				break
			}
			k.lruTouch(g)
			n++
			i++
		}
		if n > 0 {
			k.stats.Touches += uint64(n)
			k.chargeN(p, k.cfg.Costs.RAMTouch, n)
			continue
		}
		k.touchFile(p, fileKey{obj, idx + tmem.PageIndex(i)})
		i++
	}
}

func (k *Kernel) touchFile(p *sim.Proc, fk fileKey) {
	k.stats.Touches++
	g, ok := k.files[fk]
	if ok && g.resident {
		k.lruTouch(g)
		k.charge(p, k.cfg.Costs.RAMTouch)
		return
	}
	k.makeRoom(p)
	if !ok {
		g = &gpage{file: true, obj: fk.obj, idx: fk.idx, onDisk: true}
		k.files[fk] = g
	}
	if g.inTmem {
		k.charge(p, k.cfg.Costs.TmemOp)
		if k.cfg.Backend.Get(k.fileTmemKey(fk), nil) == tmem.STmem {
			// Ephemeral gets are exclusive in Xen: the copy is gone.
			k.stats.TmemHits++
			g.inTmem = false
		} else {
			// Ephemeral pools may drop pages at any time; fall back.
			k.stats.TmemMisses++
			g.inTmem = false
			k.readFileFromDisk(p)
		}
	} else {
		k.readFileFromDisk(p)
	}
	g.resident = true
	k.lruPush(g)
	k.resident++
	k.charge(p, k.cfg.Costs.RAMTouch)
}

func (k *Kernel) readFileFromDisk(p *sim.Proc) {
	k.stats.DiskReads++
	d := k.cfg.Disk.Read(k.now(p))
	k.chargeDiskFault(p, d)
}

// Shutdown tears the guest down: destroys its tmem pools and unregisters
// the VM (releasing all held tmem, as a real VM destruction would).
func (k *Kernel) Shutdown() {
	if k.cfg.Backend != nil {
		k.cfg.Backend.UnregisterVM(k.vm)
	}
	k.fsPool = tmem.InvalidPool
	k.ccPool = tmem.InvalidPool
}

// CheckInvariants validates internal consistency (tests).
func (k *Kernel) CheckInvariants() error {
	var n mem.Pages
	for g := k.lru.next; g != &k.lru; g = g.next {
		if !g.resident {
			return fmt.Errorf("guest: non-resident page on LRU")
		}
		n++
	}
	if n != k.resident {
		return fmt.Errorf("guest: resident count %d != LRU length %d", k.resident, n)
	}
	if k.resident > k.usable {
		return fmt.Errorf("guest: resident %d exceeds usable %d", k.resident, k.usable)
	}
	return k.anon.each(func(g *gpage) error {
		if !g.resident && !g.dirty && !g.inTmem && !g.onDisk {
			return fmt.Errorf("guest: page %d unreachable (no copy anywhere)", g.anon)
		}
		if !g.resident && g.dirty {
			return fmt.Errorf("guest: page %d dirty but not resident", g.anon)
		}
		return nil
	})
}
