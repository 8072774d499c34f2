package durable

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"smartmem/internal/tmem"
)

var errTorn = errors.New("injected short write")

// tearStore wraps a BlobStore so that its tear-th WAL write, counted from
// 1 over every segment, writes the first half of its bytes and fails. A
// tear of 0 tears nothing.
type tearStore struct {
	BlobStore
	tear   int
	writes int
	kept   int // bytes the torn write left in its segment
}

func (s *tearStore) Append(key string) (Appender, error) {
	a, err := s.BlobStore.Append(key)
	if err != nil {
		return nil, err
	}
	return &tearAppender{Appender: a, s: s}, nil
}

func (s *tearStore) torn() bool { return s.tear > 0 && s.writes >= s.tear }

type tearAppender struct {
	Appender
	s *tearStore
}

func (a *tearAppender) Write(p []byte) (int, error) {
	a.s.writes++
	if a.s.writes != a.s.tear {
		return a.Appender.Write(p)
	}
	n, _ := a.Appender.Write(p[:len(p)/2])
	a.s.kept = n
	return n, errTorn
}

// TestShortWriteStopsTheJournal: after a WAL write fails halfway, nothing
// more is acknowledged — not a put, which the torn record in front of it
// would hide from the next replay, and not a flush — and a reopen finds
// exactly what was acknowledged before the failure.
func TestShortWriteStopsTheJournal(t *testing.T) {
	ts := &tearStore{BlobStore: NewMemStore(), tear: 3}
	l := mustOpen(t, testOpts(ts))
	if err := l.NewPool(0, 1, tmem.Persistent); err != nil {
		t.Fatal(err)
	}
	k0, k1, k2 := key(0, 0, 0), key(0, 0, 1), key(0, 0, 2)
	if err := l.Put(k0, page(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(k1, page(2)); !errors.Is(err, errTorn) {
		t.Fatalf("torn put = %v, want the write's error", err)
	}
	if err := l.Put(k2, page(3)); err == nil {
		t.Fatal("a put after the short write was acknowledged")
	}
	if _, err := l.FlushPage(k0); err == nil {
		t.Fatal("a flush after the short write was acknowledged")
	}
	if l.Get(k0, nil) || l.Get(k1, nil) || l.Get(k2, nil) {
		t.Fatal("the live log serves a flushed or refused page")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = mustOpen(t, testOpts(ts))
	defer l.Close()
	checkModel(t, l, map[tmem.Key][]byte{k0: page(1)})
}

// TestStoreRefusesPoolTheJournalCannotRecord: once the journal has failed,
// a new persistent pool is refused; a pool the journal never recorded
// would take puts that nothing makes durable.
func TestStoreRefusesPoolTheJournalCannotRecord(t *testing.T) {
	fs := &failStore{BlobStore: NewMemStore(), budget: 1 << 20}
	l := mustOpen(t, testOpts(fs))
	defer l.Close()
	b := tmem.NewBackend(1024, tmem.NewDataStore(testPageSize))
	s := NewStore(b, l)
	pool := s.NewPool(1, tmem.Persistent)
	fs.budget = 0
	if st := s.Put(key(pool, 0, 0), page(1)); st != tmem.ETmem {
		t.Fatalf("put with the journal down = %v, want E_TMEM", st)
	}
	fs.budget = 1 << 20
	if p := s.NewPool(1, tmem.Persistent); p != tmem.InvalidPool {
		st := s.Put(key(p, 0, 0), page(2))
		t.Fatalf("NewPool after the journal failed = %d (a put into it answers %v), want InvalidPool", p, st)
	}
	if p := s.NewPool(1, tmem.Ephemeral); p == tmem.InvalidPool {
		t.Fatal("an ephemeral pool was refused: it needs no journal")
	}
}

// TestStoreFailedFlushIsNotServed: a flush whose journal record fails
// still ends the page; no read may serve it back from the journal.
func TestStoreFailedFlushIsNotServed(t *testing.T) {
	fs := &failStore{BlobStore: NewMemStore(), budget: 1 << 20}
	l := mustOpen(t, testOpts(fs))
	defer l.Close()
	s := NewStore(tmem.NewBackend(1024, tmem.NewDataStore(testPageSize)), l)
	pool := s.NewPool(1, tmem.Persistent)
	k := key(pool, 0, 0)
	if st := s.Put(k, page(1)); st != tmem.STmem {
		t.Fatalf("put: %v", st)
	}
	fs.budget = 0
	s.FlushPage(k)
	if st := s.Get(k, make([]byte, testPageSize)); st == tmem.STmem {
		t.Fatal("a flushed page was served from the journal")
	}
	if l.Contains(k) {
		t.Fatal("the journal's index kept a flushed page")
	}
}

// syncFailStore fails every Sync of its appenders while *failing is set,
// or always if failing is nil.
type syncFailStore struct {
	BlobStore
	failing *bool
}

func (s syncFailStore) Append(key string) (Appender, error) {
	a, err := s.BlobStore.Append(key)
	if err != nil {
		return nil, err
	}
	return syncFailAppender{a, s.failing}, nil
}

type syncFailAppender struct {
	Appender
	failing *bool
}

func (a syncFailAppender) Sync() error {
	if a.failing != nil && !*a.failing {
		return a.Appender.Sync()
	}
	return errors.New("injected fsync failure")
}

// TestFsyncAlwaysFailedCommitRefuses: under FsyncAlways a put whose commit
// fsync fails is refused by both shapes. It answers ETmem, and neither the
// backend nor the journal keeps the page, not even its committed version.
func TestFsyncAlwaysFailedCommitRefuses(t *testing.T) {
	for _, call := range []string{"Store.Put", "Store.PutBatch", "Tier.PutBatch", "Log.PutBatch"} {
		t.Run(call, func(t *testing.T) {
			failing := false
			opts := testOpts(syncFailStore{NewMemStore(), &failing})
			opts.Fsync = FsyncAlways
			l := mustOpen(t, opts)
			defer l.Close()
			b := tmem.NewBackend(1024, tmem.NewDataStore(testPageSize))
			s, tier := NewStore(b, l), NewTier("durable", l)
			pool := s.NewPool(1, tmem.Persistent)
			keys := []tmem.Key{key(pool, 0, 0), key(pool, 0, 1)}
			switch call {
			case "Store.Put":
				keys = keys[:1]
			case "Log.PutBatch":
				keys[1] = keys[0] // one key twice: both puts fail
			}
			for _, k := range keys {
				if st := s.Put(k, page(1)); st != tmem.STmem {
					t.Fatalf("healthy put %v = %v", k, st)
				}
			}

			failing = true
			datas, sts := [][]byte{page(2), page(3)}, make([]tmem.Status, len(keys))
			switch call {
			case "Store.Put":
				sts[0] = s.Put(keys[0], datas[0])
			case "Store.PutBatch":
				s.PutBatch(keys, datas, sts)
			case "Tier.PutBatch":
				tier.PutBatch(keys, []tmem.PoolKind{tmem.Persistent, tmem.Persistent}, datas, sts)
				if st := tier.Stats(); st.PutsOK != 0 || st.Errors != 1 {
					t.Errorf("tier counters %+v, want 0 journaled, 1 error", st)
				}
			case "Log.PutBatch":
				sts[0], sts[1] = tmem.STmem, tmem.STmem
				l.PutBatch(keys, datas, sts)
			}
			for i, k := range keys {
				if sts[i] != tmem.ETmem {
					t.Errorf("put %v after a failed commit = %v, want ETmem", k, sts[i])
				}
				if strings.HasPrefix(call, "Store.") && b.Get(k, nil) == tmem.STmem {
					t.Errorf("the backend kept %v, whose commit failed", k)
				}
				if l.Contains(k) {
					t.Errorf("the journal kept %v, whose commit failed", k)
				}
			}
			if l.Err() == nil {
				t.Error("journal not failed after a failed commit")
			}
		})
	}
}

// TestIntervalFsyncFailureCounts: a failed background fsync is counted,
// and the journal acknowledges nothing after it — the kernel may already
// have dropped the pages the fsync was for.
func TestIntervalFsyncFailureCounts(t *testing.T) {
	opts := testOpts(syncFailStore{NewMemStore(), nil})
	opts.Fsync, opts.fsyncEvery = FsyncInterval, time.Millisecond
	l := mustOpen(t, opts)
	defer l.Close()
	if err := l.NewPool(0, 1, tmem.Persistent); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(key(0, 0, 0), page(1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Errors == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := l.Stats(); st.Fsyncs == 0 || st.Errors == 0 {
		t.Fatalf("after failing interval fsyncs: %d fsyncs, %d errors; want both counted", st.Fsyncs, st.Errors)
	}
	if err := l.Put(key(0, 0, 1), page(2)); err == nil {
		t.Fatal("a put after a failed fsync was acknowledged")
	}
}

// opSource draws a history's choices: a seeded *rand.Rand, or a fuzz
// input through byteSource.
type opSource interface{ Intn(n int) int }

// byteSource reads one choice per byte and then zeros.
type byteSource []byte

func (b *byteSource) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// faultHistory runs up to steps mutations drawn from src — the op mix of
// TestLogMatchesMapModel: pools made and dropped, puts, batches, page and
// object flushes, compactions, crashes and clean shutdowns — against a
// log over a store that tears its tear-th WAL write, and holds the log to
// a map model:
//
//	(a) every mutation from the torn one on returns the torn write's error
//	    (a batch with no key in a journaled pool is none: it is skipped);
//	(b) live Gets agree with the model throughout; a flush takes its page
//	    out of the model whether or not it was journaled;
//	(c) a reopen after the fault recovers exactly the model as it stood at
//	    the fault, plus whichever whole records of a torn batch made it
//	    into the half that was written.
//
// It reports whether the fault fired.
func faultHistory(t *testing.T, src opSource, steps, tear int) bool {
	const pageSize = 96
	ts := &tearStore{BlobStore: NewMemStore(), tear: tear}
	opts := Options{
		Blob: ts, PageSize: pageSize, segmentBytes: 700, slabBytes: 400,
		Fsync: FsyncOff, InlineCompact: true, CompactBytes: -1,
	}
	l := mustOpen(t, opts)
	defer func() { l.Close() }()
	live := logModel{pages: make(map[tmem.Key][]byte), pools: make(map[tmem.PoolID]bool)}
	var atFault logModel // live as the fault found it
	nextPool, step, faultStep := tmem.PoolID(0), 0, -1

	// done vets one mutation's error and reports whether it took effect.
	done := func(err error) bool {
		t.Helper()
		if faultStep < 0 && ts.torn() {
			faultStep = step
			atFault = logModel{pages: maps.Clone(live.pages), pools: maps.Clone(live.pools)}
		}
		if faultStep < 0 {
			if err != nil {
				t.Fatalf("step %d, before the fault: %v", step, err)
			}
			return true
		}
		if !errors.Is(err, errTorn) {
			t.Fatalf("step %d, after the fault at step %d: %v, want the torn write's error", step, faultStep, err)
		}
		return false
	}
	anyKey := func() tmem.Key {
		return key(tmem.PoolID(src.Intn(int(nextPool)+1)), tmem.ObjectID(src.Intn(6)), tmem.PageIndex(src.Intn(8)))
	}
	liveKey := func() tmem.Key { // a key in a live pool, if there is one
		k := anyKey()
		if pools := slices.Sorted(maps.Keys(live.pools)); len(pools) > 0 {
			k.Pool = pools[src.Intn(len(pools))]
		}
		return k
	}
	seq := 0
	body := func() []byte {
		seq++
		d := make([]byte, src.Intn(pageSize+1))
		for i := range d {
			d[i] = byte(seq*7 + i)
		}
		return d
	}
	newPool := func(vm tmem.VMID) {
		if done(l.NewPool(nextPool, vm, tmem.Persistent)) {
			live.pools[nextPool] = true
		}
		nextPool++
	}
	putBatch := func(keys []tmem.Key, datas [][]byte) {
		held := func(k tmem.Key) bool { return live.pools[k.Pool] }
		err := l.PutBatch(keys, datas, make([]tmem.Status, len(keys)))
		if !slices.ContainsFunc(keys, held) {
			// The log skips keys of pools it does not hold, so a batch of
			// only those journals nothing and fails nothing, fault or not.
			if err != nil {
				t.Fatalf("step %d: a batch of unjournaled pools: %v", step, err)
			}
			return
		}
		if done(err) {
			for i, k := range keys {
				if held(k) {
					live.pages[k] = datas[i]
				}
			}
		} else if step == faultStep {
			end := 0
			for i, k := range keys {
				if !held(k) {
					continue
				}
				if end += putRecordLen(len(datas[i])); end <= ts.kept {
					atFault.pages[k] = datas[i]
				}
			}
		}
	}
	reopen := func(clean bool) {
		t.Helper()
		if clean {
			done(l.CloseClean())
		} else {
			done(l.Close())
		}
		l = mustOpen(t, opts)
		checkModel(t, l, live.pages)
	}

	for ; step < steps; step++ {
		if len(live.pools) == 0 && faultStep < 0 {
			newPool(1)
		}
		switch r := src.Intn(100); {
		case r < 2:
			newPool(tmem.VMID(r))
		case r < 45:
			k := liveKey()
			putBatch([]tmem.Key{k}, [][]byte{body()})
		case r < 60:
			keys := make([]tmem.Key, 1+src.Intn(8))
			datas := make([][]byte, len(keys))
			for i := range keys {
				keys[i], datas[i] = liveKey(), body()
			}
			putBatch(keys, datas)
		case r < 72:
			k := anyKey()
			_, held := live.pages[k]
			removed, err := l.FlushPage(k)
			done(err)
			if removed != held {
				t.Fatalf("step %d: FlushPage(%v) removed=%v, the model held it: %v", step, k, removed, held)
			}
			delete(live.pages, k)
		case r < 77:
			k := anyKey()
			_, err := l.FlushObject(k.Pool, k.Object)
			done(err)
			live.dropPages(func(p tmem.Key) bool { return p.Pool == k.Pool && p.Object == k.Object })
		case r < 79:
			k := anyKey()
			done(l.DropPool(k.Pool))
			delete(live.pools, k.Pool)
			live.dropPages(func(p tmem.Key) bool { return p.Pool == k.Pool })
		case r < 86:
			if done(l.Compact()) {
				checkModel(t, l, live.pages)
			}
		case r < 91:
			if faultStep >= 0 {
				step = steps // the reopen below is the history's last
				break
			}
			reopen(r < 89)
		}

		k := anyKey()
		dst := bytes.Repeat([]byte{0xAA}, pageSize)
		want, held := live.pages[k]
		if got := l.Get(k, dst); got != held {
			t.Fatalf("step %d: Get(%v) = %v, the model holds it: %v", step, k, got, held)
		}
		if held && (!bytes.Equal(dst[:len(want)], want) || !bytes.Equal(dst[len(want):], make([]byte, pageSize-len(want)))) {
			t.Fatalf("step %d: Get(%v) returned other bytes than were put", step, k)
		}
	}
	if faultStep < 0 {
		return false
	}
	checkModel(t, l, live.pages)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = mustOpen(t, opts)
	checkModel(t, l, atFault.pages)
	var pools []tmem.PoolID
	for _, p := range l.Pools() {
		pools = append(pools, p.ID)
	}
	if want := slices.Sorted(maps.Keys(atFault.pools)); !slices.Equal(pools, want) {
		t.Fatalf("reopened after the fault at step %d with pools %v, want %v", faultStep, pools, want)
	}
	if len(pools) > 0 { // the reopened log journals again
		if err := l.Put(key(pools[0], 99, 0), nil); err != nil {
			t.Fatalf("put after the reopen: %v", err)
		}
	}
	return true
}

// TestLogFaultAtEveryAppend tears the k-th WAL write of a seeded history,
// for every k the history makes, and holds the log to faultHistory's
// model at each.
func TestLogFaultAtEveryAppend(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 100
	}
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			k := 1
			for faultHistory(t, rand.New(rand.NewSource(seed)), steps, k) {
				k++
			}
			if k < steps/2 {
				t.Fatalf("the history made %d WAL writes in %d steps", k-1, steps)
			}
		})
	}
}
