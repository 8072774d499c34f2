package tmem_test

import (
	"bytes"
	"fmt"
	"testing"

	"smartmem/internal/durable"
	"smartmem/internal/tmem"
)

const exclPage = 512

// exclRig is a backend with one persistent pool of VM 1 and at most one
// lower tier; contents summarizes what that tier holds.
type exclRig struct {
	b        *tmem.Backend
	tier     tmem.Tier
	pool     tmem.PoolID
	contents func() any
}

func newExclRig(t *testing.T, tierKind string, exclusive bool) exclRig {
	t.Helper()
	r := exclRig{b: tmem.NewBackend(16, tmem.NewDataStore(exclPage)), contents: func() any { return nil }}
	switch tierKind {
	case "local":
	case "remote":
		peer := tmem.NewBackend(64, tmem.NewDataStore(exclPage))
		r.tier = tmem.NewRemoteTier("remote", tmem.NewLoopback(peer), 9)
		r.contents = func() any { return [2]any{peer.FreePages(), peer.UsedBy(9)} }
	case "compressed":
		c := tmem.NewCompressedTier(tmem.CompressedTierConfig{PageSize: exclPage, CapacityBytes: 64 * exclPage})
		r.tier = c
		r.contents = func() any {
			s := c.CompressedStats()
			s.CompressNs, s.DecompressNs = 0, 0
			return s
		}
	case "durable":
		l, err := durable.Open(durable.Options{Blob: durable.NewMemStore(), PageSize: exclPage, Fsync: durable.FsyncOff,
			InlineCompact: true, CompactBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		r.tier = durable.NewTier("durable", l)
		r.contents = func() any { s := l.Stats(); return [2]uint64{s.PagesLive, s.BytesLive} }
	default:
		t.Fatalf("unknown tier %q", tierKind)
	}
	if r.tier != nil {
		r.b.AttachTier(r.tier)
	}
	if exclusive {
		r.pool = r.b.NewExclusivePool(1)
	} else {
		r.pool = r.b.NewPool(1, tmem.Persistent)
	}
	return r
}

// state is everything the equivalence compares.
func (r exclRig) state() string {
	c, _ := r.b.Counts(1)
	var ts tmem.TierStats
	if r.tier != nil {
		ts = r.tier.Stats()
	}
	return fmt.Sprintf("counts %+v used %d free %d tier %+v holds %+v", c, r.b.UsedBy(1), r.b.FreePages(), ts, r.contents())
}

// TestExclusiveGetIsGetThenFlush: one get on an exclusive pool leaves the
// backend and its tier exactly as a Get followed by a FlushPage of the same
// key leave a plain persistent pool — for a page held locally and for pages
// tracked in the remote, compressed and durable tiers, for hits and for a
// key that is not there.
func TestExclusiveGetIsGetThenFlush(t *testing.T) {
	for _, tierKind := range []string{"local", "remote", "compressed", "durable"} {
		t.Run(tierKind, func(t *testing.T) {
			excl, plain := newExclRig(t, tierKind, true), newExclRig(t, tierKind, false)
			// Two pages stay local; with a tier, the target pushes the
			// other four down into it.
			keys := make([]tmem.Key, 6)
			for _, r := range []exclRig{excl, plain} {
				for i := range keys {
					if i == 2 {
						r.b.SetTarget(1, 2)
					}
					keys[i] = tmem.Key{Pool: r.pool, Object: 3, Index: tmem.PageIndex(60 + i)}
					want := tmem.ETmem
					if i < 2 || tierKind != "local" {
						want = tmem.STmem
					}
					if st := r.b.Put(keys[i], bytes.Repeat([]byte{byte(i + 1)}, exclPage)); st != want {
						t.Fatalf("Put %v = %v, want %v", keys[i], st, want)
					}
				}
			}
			check := func(op string) {
				t.Helper()
				for _, r := range []exclRig{excl, plain} {
					if err := r.b.CheckInvariants(); err != nil {
						t.Fatalf("%s: %v", op, err)
					}
				}
				if got, want := excl.state(), plain.state(); got != want {
					t.Fatalf("%s:\nexclusive %s\nplain     %s", op, got, want)
				}
			}
			check("puts")
			// Every key twice: a hit, then the miss the flush left behind.
			for _, k := range append(keys, keys...) {
				op := fmt.Sprint("get ", k)
				dx, dp := make([]byte, exclPage), make([]byte, exclPage)
				stx := excl.b.Get(k, dx)
				stp := plain.b.Get(k, dp)
				plain.b.FlushPage(k)
				if stx != stp || !bytes.Equal(dx, dp) {
					t.Fatalf("%s: exclusive %v, plain %v (or different bytes)", op, stx, stp)
				}
				check(op)
			}
			stored := uint64(len(keys))
			if tierKind == "local" {
				stored = 2
			}
			if c, _ := excl.b.Counts(1); c.GetsHit != stored || c.Flushes != stored {
				t.Errorf("counts %+v, want %d hits and %d flushes", c, stored, stored)
			}
			if n := excl.b.TotalPages() - excl.b.FreePages(); n != 0 {
				t.Errorf("%d pages still held", n)
			}
		})
	}
}
