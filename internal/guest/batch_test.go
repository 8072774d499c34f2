package guest

import (
	"fmt"
	"testing"

	"smartmem/internal/mem"
	"smartmem/internal/sim"
	"smartmem/internal/tmem"
)

// Access and ReadFile serve runs of resident pages with batched LRU and
// time accounting (chargeN) and send every fault through Touch/touchFile.
// The batched calls must be observably indistinguishable from a per-page
// Touch/touchFile loop: same stats, same backend counters, same virtual end
// time, same yield points. These differential tests drive the same access
// pattern both ways on identically seeded rigs and require exact equality —
// the property the byte-identical goldens rest on.

// accessPerPage is the per-page reference implementation of Access.
func accessPerPage(k *Kernel, p *sim.Proc, first PageID, count mem.Pages, write bool) {
	for i := mem.Pages(0); i < count; i++ {
		k.Touch(p, first+PageID(i), write)
	}
}

// readFilePerPage is the per-page reference implementation of ReadFile.
func readFilePerPage(k *Kernel, p *sim.Proc, obj tmem.ObjectID, idx tmem.PageIndex, count mem.Pages) {
	for i := mem.Pages(0); i < count; i++ {
		k.touchFile(p, fileKey{obj, idx + tmem.PageIndex(i)})
	}
}

// driveDiff runs a workload against a fresh rig and reports everything
// observable: guest stats, end time, and the backend's cumulative counts.
func driveDiff(t *testing.T, tmemPages, ram mem.Pages, cleancache bool, nonExcl bool,
	body func(k *Kernel, p *sim.Proc, perPage bool)) (perPage, batched string) {
	t.Helper()
	once := func(usePerPage bool) string {
		r := newRig(tmemPages)
		var g *Kernel
		if nonExcl {
			g = r.nonExclGuest(1, ram)
		} else {
			g = r.guest(1, ram, true, cleancache)
		}
		end := r.run(func(p *sim.Proc) { body(g, p, usePerPage) })
		c, _ := r.be.Counts(1)
		return fmt.Sprintf("end=%v stats=%+v counts=%+v free=%d resident=%d",
			end, g.Stats(), c, r.be.FreePages(), g.Resident())
	}
	return once(true), once(false)
}

func TestAccessBatchedMatchesPerPage(t *testing.T) {
	cases := []struct {
		name     string
		tmem     mem.Pages
		ram      mem.Pages
		nonExcl  bool
		scenario func(k *Kernel, p *sim.Proc, perPage bool)
	}{
		{
			// Working set twice RAM: every sweep refaults half the set
			// through frontswap between resident runs.
			name: "frontswap-thrash-exclusive", tmem: 4096, ram: 128,
			scenario: func(k *Kernel, p *sim.Proc, perPage bool) {
				for pass := 0; pass < 6; pass++ {
					if perPage {
						accessPerPage(k, p, 0, 256, pass%2 == 0)
					} else {
						k.Access(p, 0, 256, pass%2 == 0)
					}
				}
			},
		},
		{
			name: "frontswap-thrash-non-exclusive", tmem: 4096, ram: 128, nonExcl: true,
			scenario: func(k *Kernel, p *sim.Proc, perPage bool) {
				for pass := 0; pass < 6; pass++ {
					// Read-only passes keep the copies valid under
					// non-exclusive gets; the write pass invalidates them.
					write := pass == 3
					if perPage {
						accessPerPage(k, p, 0, 300, write)
					} else {
						k.Access(p, 0, 300, write)
					}
				}
			},
		},
		{
			// tmem smaller than the overflow: puts fail, pages go to disk,
			// refaults mix inTmem and onDisk copies.
			name: "tmem-pressure-mixed-copies", tmem: 64, ram: 128,
			scenario: func(k *Kernel, p *sim.Proc, perPage bool) {
				for pass := 0; pass < 5; pass++ {
					if perPage {
						accessPerPage(k, p, 0, 320, pass == 0)
					} else {
						k.Access(p, 0, 320, pass == 0)
					}
				}
			},
		},
		{
			// Tiny RAM: short resident runs, evictions interleave.
			name: "eviction-bounded-runs", tmem: 4096, ram: 10,
			scenario: func(k *Kernel, p *sim.Proc, perPage bool) {
				for pass := 0; pass < 4; pass++ {
					if perPage {
						accessPerPage(k, p, 0, 64, false)
					} else {
						k.Access(p, 0, 64, false)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, got := driveDiff(t, tc.tmem, tc.ram, false, tc.nonExcl, tc.scenario)
			if ref != got {
				t.Errorf("batched access diverged from per-page:\n per-page: %s\n  batched: %s", ref, got)
			}
		})
	}
}

func TestReadFileBatchedMatchesPerPage(t *testing.T) {
	cases := []struct {
		name string
		tmem mem.Pages
		ram  mem.Pages
	}{
		// Large tmem: cleancache absorbs the whole file, pure hit runs.
		{name: "cleancache-hits", tmem: 4096, ram: 96},
		// Small tmem: ephemeral evictions produce cleancache misses, so
		// tmem hits and the disk fallback interleave.
		{name: "cleancache-misses", tmem: 48, ram: 96},
		// Tiny RAM: short resident runs.
		{name: "tight-ram", tmem: 256, ram: 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scenario := func(k *Kernel, p *sim.Proc, perPage bool) {
				for pass := 0; pass < 6; pass++ {
					if perPage {
						readFilePerPage(k, p, 7, 0, 240)
					} else {
						k.ReadFile(p, 7, 0, 240)
					}
					// Anonymous traffic in between churns the shared LRU.
					if perPage {
						accessPerPage(k, p, 0, 32, true)
					} else {
						k.Access(p, 0, 32, true)
					}
				}
			}
			ref, got := driveDiff(t, tc.tmem, tc.ram, true, false, scenario)
			if ref != got {
				t.Errorf("batched access diverged from per-page:\n per-page: %s\n  batched: %s", ref, got)
			}
		})
	}
}

// TestAccessSteadyStateZeroAlloc pins the allocation budget of the full
// guest→backend hot path: a warm refault loop (evict/put + refault/get/flush,
// one backend call per page) must not allocate — pooled sim events, pooled
// store entries and slab pages all compose here.
func TestAccessSteadyStateZeroAlloc(t *testing.T) {
	r := newRig(4096)
	g := r.guest(1, 64, true, false)
	r.k.Spawn("w", func(p *sim.Proc) {
		for {
			g.Access(p, 0, 128, false) // WS 2x RAM: steady put/get churn
		}
	})
	for i := 0; i < 256; i++ {
		if !r.k.Step() {
			t.Fatal("simulation drained")
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if !r.k.Step() {
			t.Fatal("simulation drained")
		}
	})
	if allocs != 0 {
		t.Errorf("guest access steady state = %v allocs/op, want 0", allocs)
	}
	r.k.KillAll()
}

// Refaults into free RAM (no eviction per fault) alternate with resident
// runs; run them differentially too.
func TestAccessBatchedMatchesPerPageWithHeadroom(t *testing.T) {
	scenario := func(k *Kernel, p *sim.Proc, perPage bool) {
		acc := func(first PageID, count mem.Pages, write bool) {
			if perPage {
				accessPerPage(k, p, first, count, write)
			} else {
				k.Access(p, first, count, write)
			}
		}
		for pass := 0; pass < 4; pass++ {
			acc(0, 96, true)
			acc(1000, 96, true)
			k.Free(p, 1000, 96)
			acc(0, 96, false) // frontswap hits into free RAM
		}
	}
	ref, got := driveDiff(t, 4096, 128, false, false, scenario)
	if ref != got {
		t.Errorf("batched access diverged from per-page:\n per-page: %s\n  batched: %s", ref, got)
	}
}
