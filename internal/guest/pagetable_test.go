package guest

import (
	"fmt"
	"testing"

	"smartmem/internal/mem"
	"smartmem/internal/sim"
	"smartmem/internal/tmem"
)

// modelKernel is the reference the dense page table is checked against: the
// anonymous-page PFRA written the obvious way, over a plain map keyed by
// PageID with a use stamp per page instead of LRU links, and one page at a
// time (Access is a Touch loop). It borrows a real Kernel for everything
// that does not depend on how pages are looked up — cost model, time
// accounting, counters, backend and disk — and never touches that kernel's
// own table.
type modelKernel struct {
	*Kernel
	pages map[PageID]mpage
	clock uint64
}

type mpage struct {
	resident, dirty, inTmem, onDisk bool
	stamp                           uint64 // last use; smallest resident stamp is coldest
}

func (m *modelKernel) invalidate(p *sim.Proc, id PageID, g *mpage) {
	if g.inTmem {
		m.charge(p, m.cfg.Costs.TmemFlush)
		m.cfg.Backend.FlushPage(anonKey(m.fsPool, id))
		m.stats.TmemFlushes++
		g.inTmem = false
	}
	g.onDisk = false
}

func (m *modelKernel) evictColdest(p *sim.Proc) {
	if m.resident < m.usable {
		return
	}
	var id PageID
	found := false
	for pid, g := range m.pages {
		if g.resident && (!found || g.stamp < m.pages[id].stamp) {
			id, found = pid, true
		}
	}
	v := m.pages[id]
	v.resident = false
	m.resident--
	m.stats.Evictions++
	switch {
	case !v.dirty && (v.inTmem || v.onDisk):
		m.stats.CleanEvicts++
	default:
		stored := false
		if m.fsPool != tmem.InvalidPool {
			m.charge(p, m.cfg.Costs.TmemOp)
			if m.cfg.Backend.Put(anonKey(m.fsPool, id), nil) == tmem.STmem {
				m.stats.PutsOK++
				v.inTmem, stored = true, true
			} else {
				m.stats.PutsFailed++
			}
		}
		if !stored {
			d := m.cfg.Disk.Write(m.now(p))
			m.stats.DiskWrites++
			m.chargeDiskFault(p, d)
			v.onDisk = true
		}
		v.dirty = false
	}
	m.pages[id] = v
}

func (m *modelKernel) Touch(p *sim.Proc, id PageID, write bool) {
	m.stats.Touches++
	g, ok := m.pages[id]
	if !ok || !g.resident {
		m.evictColdest(p)
		g = m.pages[id] // the victim is never id (it is not resident), but stay exact
		switch {
		case !ok:
			g.dirty = true
			m.stats.MinorFaults++
			m.charge(p, m.cfg.Costs.MinorFault)
		case g.inTmem:
			m.charge(p, m.cfg.Costs.TmemOp)
			if m.cfg.Backend.Get(anonKey(m.fsPool, id), nil) != tmem.STmem {
				panic("model: persistent pool lost a page")
			}
			m.stats.TmemHits++
			if m.cfg.NonExclusiveGets {
				g.dirty = false
			} else {
				m.charge(p, m.cfg.Costs.TmemFlush)
				m.cfg.Backend.FlushPage(anonKey(m.fsPool, id))
				m.stats.TmemFlushes++
				g.inTmem, g.dirty = false, true
			}
		case g.onDisk:
			m.stats.DiskReads++
			m.chargeDiskFault(p, m.cfg.Disk.Read(m.now(p)))
			g.dirty = false
		default:
			panic("model: non-resident page without a copy")
		}
		g.resident = true
		m.resident++
	}
	m.clock++
	g.stamp = m.clock
	m.charge(p, m.cfg.Costs.RAMTouch)
	if write && !g.dirty {
		g.dirty = true
		m.invalidate(p, id, &g)
	}
	m.pages[id] = g
}

func (m *modelKernel) Free(p *sim.Proc, first PageID, count mem.Pages) {
	for i := mem.Pages(0); i < count; i++ {
		id := first + PageID(i)
		g, ok := m.pages[id]
		if !ok {
			continue
		}
		if g.resident {
			m.resident--
		}
		m.invalidate(p, id, &g)
		delete(m.pages, id)
		m.stats.FreedPages++
	}
	m.flush(p)
}

// pageOp is one step of the differential sequence.
type pageOp struct {
	kind          int // 0 Touch, 1 Access, 2 strided Touch loop, 3 Free
	first         PageID
	count, stride mem.Pages
	write         bool
}

// randomPageOps draws a seeded op sequence over IDs clustered around chunk
// boundaries (so runs straddle them and whole chunks stay untouched in
// between), with enough Frees that freed slots are touched again.
func randomPageOps(seed uint64, n int) []pageOp {
	rng := sim.NewRNG(seed)
	bases := []PageID{0, chunkPages - 40, 2*chunkPages - 8, 5*chunkPages - 100}
	ops := make([]pageOp, n)
	for i := range ops {
		op := pageOp{
			first: bases[rng.Intn(len(bases))] + PageID(rng.Intn(120)),
			count: mem.Pages(1 + rng.Intn(60)),
			write: rng.Intn(3) == 0,
		}
		switch r := rng.Intn(10); {
		case r < 3:
			op.kind = 0
		case r < 6:
			op.kind = 1
		case r < 8:
			op.kind, op.stride = 2, mem.Pages(rng.Intn(4)) // stride 0 included
		default:
			op.kind = 3
		}
		ops[i] = op
	}
	return ops
}

// observe is everything a caller of the guest kernel can see.
func observe(r *rig, stats Stats, resident mem.Pages, p *sim.Proc) string {
	s := fmt.Sprintf("now=%v stats=%+v resident=%d", p.Now(), stats, resident)
	if r.be != nil {
		c, _ := r.be.Counts(1)
		s += fmt.Sprintf(" counts=%+v free=%d", c, r.be.FreePages())
	}
	return s
}

// TestPageTableMatchesMapModel drives the real kernel and the map model
// with the same op sequence on identically built rigs and requires the same
// observable state, and a consistent table, after every single op.
func TestPageTableMatchesMapModel(t *testing.T) {
	for _, tc := range []struct {
		name      string
		tmemPages mem.Pages
		nonExcl   bool
	}{
		{"frontswap", 96, false},              // smaller than the overflow: puts fail over to disk
		{"frontswap-non-exclusive", 96, true}, // copies stay valid until dirtied
		{"no-tmem", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ops := randomPageOps(0xD15C0, 1500)
			build := func() (*rig, *Kernel) {
				r := newRig(tc.tmemPages)
				if tc.nonExcl {
					return r, r.nonExclGuest(1, 64)
				}
				return r, r.guest(1, 64, tc.tmemPages > 0, false)
			}

			var want []string
			r, g := build()
			m := &modelKernel{Kernel: g, pages: map[PageID]mpage{}}
			r.run(func(p *sim.Proc) {
				for _, op := range ops {
					switch op.kind {
					case 0:
						m.Touch(p, op.first, op.write)
					case 1, 2:
						stride := op.stride
						if op.kind == 1 {
							stride = 1
						}
						for i := mem.Pages(0); i < op.count; i++ {
							m.Touch(p, op.first+PageID(i*stride), op.write)
						}
					case 3:
						m.Free(p, op.first, op.count)
					}
					want = append(want, observe(r, m.stats, m.resident, p))
				}
			})

			r, g = build()
			i := 0
			r.run(func(p *sim.Proc) {
				for ; i < len(ops); i++ {
					op := ops[i]
					switch op.kind {
					case 0:
						g.Touch(p, op.first, op.write)
					case 1:
						g.Access(p, op.first, op.count, op.write)
					case 2:
						for j := mem.Pages(0); j < op.count; j++ {
							g.Touch(p, op.first+PageID(j*op.stride), op.write)
						}
					case 3:
						g.Free(p, op.first, op.count)
					}
					if err := g.CheckInvariants(); err != nil {
						t.Errorf("op %d %+v: %v", i, op, err)
						return
					}
					if got := observe(r, g.Stats(), g.Resident(), p); got != want[i] {
						t.Errorf("op %d %+v diverged:\n table %s\n model %s", i, op, got, want[i])
						return
					}
				}
			})
			if i != len(ops) {
				return
			}
			if r.be != nil {
				if err := r.be.CheckInvariants(); err != nil {
					t.Error(err)
				}
			}
			if st := g.Stats(); st.FreedPages == 0 || st.Evictions == 0 || st.TmemHits+st.DiskReads == 0 {
				t.Errorf("sequence exercised no free, eviction or refault: %+v", st)
			}
		})
	}
}

// TestPageTableSlots pins the table's own contract: absent pages (beyond
// the directory, in a missing chunk, never inserted, removed) look up nil;
// a reinserted slot comes back zeroed; slots do not move as the table grows.
func TestPageTableSlots(t *testing.T) {
	var pt pageTable
	for _, id := range []PageID{0, chunkPages - 1, chunkPages, 7 * chunkPages} {
		if pt.lookup(id) != nil {
			t.Fatalf("page %d present in an empty table", id)
		}
	}
	a := pt.insert(chunkPages - 1)
	a.dirty, a.inTmem = true, true
	b := pt.insert(3 * chunkPages)
	if pt.lookup(chunkPages-1) != a || pt.lookup(3*chunkPages) != b {
		t.Fatal("slot moved when the directory grew")
	}
	if a.anon != chunkPages-1 || b.anon != 3*chunkPages {
		t.Fatalf("slot ids = %d, %d", a.anon, b.anon)
	}
	if pt.lookup(2*chunkPages+5) != nil || pt.lookup(chunkPages-2) != nil {
		t.Fatal("never-inserted page present")
	}
	pt.remove(a)
	if pt.lookup(chunkPages-1) != nil {
		t.Fatal("removed page still present")
	}
	if again := pt.insert(chunkPages - 1); again != a || again.dirty || again.inTmem {
		t.Fatalf("reinserted slot not reused and zeroed: %+v", *again)
	}
	n := 0
	_ = pt.each(func(*gpage) error { n++; return nil })
	if n != 2 {
		t.Fatalf("each visited %d pages, want 2", n)
	}
}

// TestFirstTouchInChunkZeroAlloc pins the table's allocation budget: a
// first touch allocates only when it opens a new chunk, and resident
// re-touches never do.
func TestFirstTouchInChunkZeroAlloc(t *testing.T) {
	r := newRig(0)
	g := r.guest(1, 4*chunkPages, false, false)
	r.run(func(p *sim.Proc) {
		g.Touch(p, 0, true) // opens chunk 0
		next := PageID(1)
		if a := testing.AllocsPerRun(chunkPages/2, func() {
			g.Touch(p, next, true)
			next++
		}); a != 0 {
			t.Errorf("first touch inside an allocated chunk = %v allocs/op, want 0", a)
		}
		if a := testing.AllocsPerRun(100, func() { g.Access(p, 0, chunkPages/2, false) }); a != 0 {
			t.Errorf("resident Access = %v allocs/op, want 0", a)
		}
	})
}
