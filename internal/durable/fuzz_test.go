package durable

import (
	"math/rand"
	"testing"

	"smartmem/internal/tmem"
)

// FuzzWALReplay feeds arbitrary bytes in as a WAL segment: Open must
// never panic, never allocate unboundedly, and always produce an index
// whose every entry reads back clean and whose gauges agree with it —
// malformed records are rejected as a torn tail or corruption, not
// interpreted.
func FuzzWALReplay(f *testing.F) {
	// Seed with a valid segment, its truncations and mutations.
	seed := NewMemStore()
	l, err := Open(testOpts(seed))
	if err != nil {
		f.Fatal(err)
	}
	l.NewPool(0, 1, tmem.Persistent)
	l.Put(tmem.Key{Pool: 0, Object: 1, Index: 2}, []byte("page-bytes"))
	l.FlushPage(tmem.Key{Pool: 0, Object: 1, Index: 2})
	l.FlushObject(0, 1)
	l.DropPool(0)
	l.Close()
	segs, _ := listSegments(seed)
	valid, _ := seed.Get(segKey(segs[0]))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	mutated := append([]byte(nil), valid...)
	mutated[9] ^= 0x80
	f.Add(mutated)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		blob := NewMemStore()
		blob.Put(segKey(1), data)
		l, err := Open(testOpts(blob))
		if err != nil {
			return // structural open errors are fine; panics are not
		}
		checkIndexReadsBack(t, l)
		// The repaired log must accept writes and survive a reopen.
		if err := l.NewPool(1000, 1, tmem.Persistent); err != nil {
			t.Fatalf("post-replay NewPool: %v", err)
		}
		k := tmem.Key{Pool: 1000, Object: 0, Index: 0}
		if err := l.Put(k, []byte("post-replay")); err != nil {
			t.Fatalf("post-replay Put: %v", err)
		}
		l.Close()
		l2, err := Open(testOpts(blob))
		if err != nil {
			t.Fatalf("reopen after repair: %v", err)
		}
		if !l2.Contains(k) {
			t.Fatal("post-replay write lost across reopen")
		}
		l2.Close()
	})
}

// checkIndexReadsBack: whatever bytes a log was opened over, every page it
// indexed reads back through its location CRC-clean, and the gauges count
// exactly those pages.
func checkIndexReadsBack(t *testing.T, l *Log) {
	t.Helper()
	var pages, bytes uint64
	err := l.RangePages(func(_ tmem.Key, d []byte) bool {
		pages++
		bytes += uint64(len(d))
		return true
	})
	if err != nil {
		t.Fatalf("an indexed page does not read back: %v", err)
	}
	st := l.Stats()
	if st.PagesLive != pages || st.BytesLive != bytes || st.Errors != 0 {
		t.Fatalf("gauges inconsistent: %+v vs counted %d pages / %d bytes", st, pages, bytes)
	}
}

// FuzzSnapshotLoad feeds arbitrary bytes in as a snapshot — a manifest and
// the first two slabs of the directory it describes. Slabs are decoded
// untrusted bytes that yield both state and offsets into themselves: Open
// must either refuse the snapshot or return a log whose every indexed page
// reads back CRC-clean, and never panic or read out of range.
func FuzzSnapshotLoad(f *testing.F) {
	seed := NewMemStore()
	opts := testOpts(seed)
	opts.slabBytes = 512
	l, err := Open(opts)
	if err != nil {
		f.Fatal(err)
	}
	seedLog(f, l, 0, 6)
	l.Put(tmem.Key{Pool: 0, Object: 9, Index: 9}, nil)
	if err := l.Compact(); err != nil {
		f.Fatal(err)
	}
	l.Close()
	dir := snapshotDir(l.snapshotSeq)
	mf, _ := seed.Get(dir + "/" + manifestName)
	slab0, _ := seed.Get(slabKey(l.snapshotSeq, 0))
	slab1, _ := seed.Get(slabKey(l.snapshotSeq, 1))
	if len(slab1) == 0 {
		f.Fatal("the seed snapshot needs at least two slabs")
	}
	f.Add(mf, slab0, slab1)
	f.Add(mf, slab0, slab1[:len(slab1)-5])
	f.Add(mf, slab1, slab0)
	f.Add([]byte(`{"wal_resume":2,"slabs":1,"pools":1,"pages":1,"bytes":0}`), slab0, []byte{})
	f.Add([]byte(`{"slabs":-1}`), slab0, slab1)
	f.Add([]byte(`{"slabs":1000000000}`), slab0, slab1)
	flipped := append([]byte(nil), slab0...)
	flipped[putDataOff+3] ^= 0x10
	f.Add(mf, flipped, slab1)

	f.Fuzz(func(t *testing.T, mf, slab0, slab1 []byte) {
		blob := NewMemStore()
		const seq = 2
		blob.Put(snapshotDir(seq)+"/"+manifestName, mf)
		blob.Put(slabKey(seq, 0), slab0)
		blob.Put(slabKey(seq, 1), slab1)
		l, err := Open(testOpts(blob))
		if err != nil {
			return // refusing a damaged snapshot is the contract
		}
		defer l.Close()
		checkIndexReadsBack(t, l)
		// What loaded must compact, and the compacted state must reload.
		if err := l.Compact(); err != nil {
			t.Fatalf("Compact over a loaded snapshot: %v", err)
		}
		checkIndexReadsBack(t, l)
	})
}

// FuzzLogFaults runs faultHistory on a history and a fault position taken
// from the fuzz input: each program byte is one of the history's choices,
// and tear picks the WAL write that fails halfway. Checks (a)–(c) of
// faultHistory hold for every input.
func FuzzLogFaults(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		program := make([]byte, 256<<seed)
		rand.New(rand.NewSource(seed)).Read(program)
		f.Add(program, uint16(seed*13))
	}
	f.Add([]byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, program []byte, tear uint16) {
		steps := min(len(program)/4+1, 400)
		src := byteSource(program)
		faultHistory(t, &src, steps, 1+int(tear)%steps)
	})
}
