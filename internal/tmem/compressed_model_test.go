package tmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"smartmem/internal/mem"
)

// compressedModel is the reference TestCompressedTierMatchesModel holds
// CompressedTier to, written as naively as possible: every put encodes
// (with the reference encoder), a blob is an encoding string with a
// reference count, and nothing is recycled.
type compressedModel struct {
	capacity mem.Bytes
	maxPages int
	enc      refLZCodec
	pages    map[Key]string // key → its page's encoding
	raw      map[Key][]byte // key → the page a get must return
	refs     map[string]int // encoding → keys holding it
	stored   mem.Bytes
	stats    CompressedTierStats
}

func newCompressedModel(capacity mem.Bytes) *compressedModel {
	return &compressedModel{
		capacity: capacity,
		maxPages: compressedRatioCap * int(capacity/testPage),
		pages:    map[Key]string{},
		raw:      map[Key][]byte{},
		refs:     map[string]int{},
	}
}

// full reports that not even the smallest blob fits.
func (m *compressedModel) full() bool { return m.capacity-m.stored < slabClassSize(0) }

func (m *compressedModel) drop(key Key) {
	enc := m.pages[key]
	if m.refs[enc]--; m.refs[enc] == 0 {
		delete(m.refs, enc)
		m.stored -= slabClassSize(slabClass(len(enc)))
	}
	delete(m.pages, key)
	delete(m.raw, key)
}

// put also reports whether the arena was full once the key's old page was
// dropped, and whether a blob already held the new page.
func (m *compressedModel) put(key Key, data []byte) (st Status, full, dup bool) {
	m.stats.Puts++
	if _, held := m.pages[key]; held {
		m.drop(key)
	}
	if len(m.pages) >= m.maxPages {
		m.stats.RejectedFull++
		return ETmem, false, false
	}
	full = m.full()
	page := make([]byte, testPage)
	copy(page, data)
	enc := string(m.enc.Encode(nil, page))
	if dup = m.refs[enc] > 0; dup {
		m.stats.DedupHits++
	} else {
		class := slabClassSize(slabClass(len(enc)))
		if m.stored+class > m.capacity {
			m.stats.RejectedFull++
			return ETmem, full, false
		}
		m.stored += class
	}
	m.refs[enc]++
	m.pages[key], m.raw[key] = enc, page
	m.stats.PutsOK++
	return STmem, full, dup
}

func (m *compressedModel) get(key Key) (Status, []byte) {
	page, held := m.raw[key]
	if !held {
		return ETmem, nil
	}
	if key.Pool == compressedModelEphemeral {
		m.drop(key)
	}
	return STmem, page
}

func (m *compressedModel) flush(key Key) Status {
	if _, held := m.pages[key]; !held {
		return ETmem
	}
	m.drop(key)
	return STmem
}

// compressedModelEphemeral is the pool whose pages the model test puts as
// ephemeral (destructive gets); pool 1 is persistent.
const compressedModelEphemeral PoolID = 2

// TestCompressedTierMatchesModel drives a CompressedTier and the model with
// the same seeded puts, overwrites, gets and flushes over a 64 KiB arena and
// a small pool of serve-class text, dup and random pages, so dedup hits and
// an exactly full arena both come up often. A second pool adds the zero
// page, both as nil and as bytes, and a short page the tier pads. After
// every op the status and the counters must agree. A put refused on a full
// arena, with no blob holding its page, must leave CompressNs as it was
// (the tier decided without encoding), and a dup put on a full arena must
// still land.
func TestCompressedTierMatchesModel(t *testing.T) {
	const arena = 64 * mem.KiB
	serve := serveTestPages(3, 6)
	var pool [][]byte
	for _, class := range []string{"text", "dup", "random"} {
		pool = append(pool, serve[class]...)
	}
	pools := map[string][][]byte{
		"serve":       pool,
		"small-pages": append([][]byte{nil, make([]byte, testPage), serve["text"][0][:1000]}, pool...),
	}
	for _, name := range []string{"serve", "small-pages"} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed-%d", name, seed), func(t *testing.T) {
				skipped, fullDups := runCompressedModel(t, arena, pools[name], seed)
				// The small pages' blobs keep the arena a few bytes short of
				// full for as long as they live.
				if name == "serve" && (skipped < 20 || fullDups < 20) {
					t.Errorf("%d puts refused and %d dup puts landed on a full arena, want 20 of each", skipped, fullDups)
				}
			})
		}
	}
}

// runCompressedModel runs one seeded op sequence over pages and returns how
// many puts the full arena refused and how many dup puts it took.
func runCompressedModel(t *testing.T, arena mem.Bytes, pages [][]byte, seed int64) (skipped, fullDups int) {
	ct, m := newTestCompressedTier(arena), newCompressedModel(arena)
	rng := rand.New(rand.NewSource(seed))
	key := func() Key {
		return Key{Pool: PoolID(1 + rng.Intn(2)), Object: ObjectID(rng.Intn(2)), Index: PageIndex(rng.Intn(16))}
	}
	dst := make([]byte, testPage)
	for i := 0; i < 3000; i++ {
		var op string
		var got, want Status
		// Fill phases (mostly puts) drive the arena to full; drain phases
		// (many gets and flushes) open it up again.
		putShare, getShare := 40, 70
		if i%500 < 300 {
			putShare, getShare = 90, 95
		}
		switch r := rng.Intn(100); {
		case r < putShare:
			k, data := key(), pages[rng.Intn(len(pages))]
			kind := Persistent
			if k.Pool == compressedModelEphemeral {
				kind = Ephemeral
			}
			ns := ct.CompressedStats().CompressNs
			var full, dup bool
			op = fmt.Sprintf("Put %v (%d bytes)", k, len(data))
			got = ct.Put(k, kind, data)
			want, full, dup = m.put(k, data)
			switch {
			case full && dup:
				fullDups++
			case full && ct.CompressedStats().CompressNs != ns:
				t.Fatalf("op %d %s: a put refused on a full arena encoded", i, op)
			case full:
				skipped++
			}
		case r < getShare:
			k := key()
			op = fmt.Sprint("Get ", k)
			clear(dst)
			got = ct.Get(k, dst)
			var page []byte
			if want, page = m.get(k); want == STmem && !bytes.Equal(dst, page) {
				t.Fatalf("op %d %s: wrong page contents", i, op)
			}
		default:
			k := key()
			op = fmt.Sprint("FlushPage ", k)
			got, want = ct.FlushPage(k), m.flush(k)
		}
		if got != want {
			t.Fatalf("op %d %s = %v, model %v", i, op, got, want)
		}
		s := ct.CompressedStats()
		gotC := [...]any{s.Puts, s.PutsOK, s.DedupHits, s.RejectedFull, s.StoredBytes, s.UniqueBlobs, s.PagesStored}
		wantC := [...]any{m.stats.Puts, m.stats.PutsOK, m.stats.DedupHits, m.stats.RejectedFull, m.stored,
			int64(len(m.refs)), mem.Pages(len(m.pages))}
		if gotC != wantC {
			t.Fatalf("op %d %s: Puts, PutsOK, DedupHits, RejectedFull, StoredBytes, UniqueBlobs, PagesStored = %v, model %v",
				i, op, gotC, wantC)
		}
	}
	return skipped, fullDups
}
