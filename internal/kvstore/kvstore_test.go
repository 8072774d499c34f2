package kvstore

import (
	"bytes"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"

	"smartmem/internal/durable"
	"smartmem/internal/mem"
	"smartmem/internal/tmem"
)

const pageSize = 4096

func pipeRig(t *testing.T, pages mem.Pages) (*Client, *tmem.Backend) {
	t.Helper()
	backend := tmem.NewBackend(pages, tmem.NewDataStore(pageSize))
	srv := NewServerStore(backend)
	a, b := net.Pipe()
	go func() { _ = srv.ServeConn(b) }()
	cl := NewClient(a, pageSize)
	t.Cleanup(func() { cl.Close() })
	return cl, backend
}

func page(b byte) []byte {
	p := make([]byte, pageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestPutGetFlushOverWire(t *testing.T) {
	cl, _ := pipeRig(t, 64)
	pool, err := cl.NewPool(1, tmem.Persistent)
	if err != nil {
		t.Fatal(err)
	}
	key := tmem.Key{Pool: pool, Object: 9, Index: 4}

	st, err := cl.Put(key, page(0xCD))
	if err != nil || st != tmem.STmem {
		t.Fatalf("Put = %v, %v", st, err)
	}
	st, got, err := cl.Get(key)
	if err != nil || st != tmem.STmem {
		t.Fatalf("Get = %v, %v", st, err)
	}
	if !bytes.Equal(got, page(0xCD)) {
		t.Error("wire round trip corrupted page")
	}
	st, err = cl.FlushPage(key)
	if err != nil || st != tmem.STmem {
		t.Fatalf("Flush = %v, %v", st, err)
	}
	st, _, err = cl.Get(key)
	if err != nil || st != tmem.ETmem {
		t.Errorf("Get after flush = %v, %v (want E_TMEM)", st, err)
	}
}

func TestFlushObjectOverWire(t *testing.T) {
	cl, backend := pipeRig(t, 64)
	pool, _ := cl.NewPool(1, tmem.Persistent)
	for i := 0; i < 5; i++ {
		if st, _ := cl.Put(tmem.Key{Pool: pool, Object: 3, Index: tmem.PageIndex(i)}, nil); st != tmem.STmem {
			t.Fatalf("put %d failed", i)
		}
	}
	if n, st, err := cl.FlushObjectCount(pool, 3); err != nil || st != tmem.STmem || n != 5 {
		t.Fatalf("FlushObjectCount = %d, %v, %v; want 5 pages freed", n, st, err)
	}
	if used := backend.UsedBy(1); used != 0 {
		t.Errorf("backend used = %d after object flush", used)
	}
}

func TestCapacityErrorsCrossTheWire(t *testing.T) {
	cl, _ := pipeRig(t, 2)
	pool, _ := cl.NewPool(1, tmem.Persistent)
	ok := 0
	for i := 0; i < 4; i++ {
		st, err := cl.Put(tmem.Key{Pool: pool, Object: 1, Index: tmem.PageIndex(i)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st == tmem.STmem {
			ok++
		} else if st != tmem.ETmem {
			t.Fatalf("unexpected status %v", st)
		}
	}
	if ok != 2 {
		t.Errorf("puts succeeded = %d, want 2 (capacity)", ok)
	}
	// Unknown pool surfaces E_INVAL.
	if st, _ := cl.Put(tmem.Key{Pool: 99, Object: 1, Index: 1}, nil); st != tmem.EInval {
		t.Errorf("unknown pool put = %v, want E_INVAL", st)
	}
}

func TestOversizedPayloadRejectedClientSide(t *testing.T) {
	cl, _ := pipeRig(t, 8)
	pool, _ := cl.NewPool(1, tmem.Persistent)
	if _, err := cl.Put(tmem.Key{Pool: pool}, make([]byte, pageSize+1)); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestTargetsEnforcedOverWire(t *testing.T) {
	cl, backend := pipeRig(t, 100)
	pool, _ := cl.NewPool(1, tmem.Persistent)
	backend.SetTarget(1, 3)
	ok := 0
	for i := 0; i < 10; i++ {
		if st, _ := cl.Put(tmem.Key{Pool: pool, Object: 1, Index: tmem.PageIndex(i)}, nil); st == tmem.STmem {
			ok++
		}
	}
	if ok != 3 {
		t.Errorf("puts within target = %d, want 3", ok)
	}
}

func TestConcurrentClientsOverTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	backend := tmem.NewBackend(1024, tmem.NewDataStore(pageSize))
	srv := NewServerStore(backend)
	go func() { _ = srv.Serve(l) }()

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(vm tmem.VMID) {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			cl := NewClient(conn, pageSize)
			defer cl.Close()
			pool, err := cl.NewPool(vm, tmem.Persistent)
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < 50; j++ {
				key := tmem.Key{Pool: pool, Object: 1, Index: tmem.PageIndex(j)}
				if st, err := cl.Put(key, page(byte(vm))); err != nil || st != tmem.STmem {
					errs <- err
					return
				}
				st, got, err := cl.Get(key)
				if err != nil || st != tmem.STmem || got[0] != byte(vm) {
					errs <- err
					return
				}
			}
		}(tmem.VMID(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := backend.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestConstructorValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"nil store":     func() { NewServerStore(nil) },
		"nil conn":      func() { NewClient(nil, pageSize) },
		"bad page size": func() { a, _ := net.Pipe(); NewClient(a, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDestroyPoolOverWire(t *testing.T) {
	cl, backend := pipeRig(t, 64)
	pool, err := cl.NewPool(1, tmem.Persistent)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if st, err := cl.Put(tmem.Key{Pool: pool, Object: 1, Index: tmem.PageIndex(i)}, page(byte(i))); err != nil || st != tmem.STmem {
			t.Fatalf("Put %d = %v, %v", i, st, err)
		}
	}
	st, err := cl.DestroyPool(pool)
	if err != nil || st != tmem.STmem {
		t.Fatalf("DestroyPool = %v, %v", st, err)
	}
	if used := backend.TotalPages() - backend.FreePages(); used != 0 {
		t.Errorf("store still holds %d pages after pool destruction", used)
	}
	// Destroying an unknown pool reports E_INVAL, not a dead connection.
	st, err = cl.DestroyPool(pool)
	if err != nil || st != tmem.EInval {
		t.Errorf("double destroy = %v, %v (want E_INVAL)", st, err)
	}
}

// TestNewPoolRejectsUnknownKind: a pool is Persistent or Ephemeral, and a
// frame naming any other kind answers E_INVAL and creates nothing. A kind-7
// pool used to behave as persistent while the journal records persistent
// pools only, so a durable store acknowledged its puts without journaling
// them and a crash lost them.
func TestNewPoolRejectsUnknownKind(t *testing.T) {
	l, err := durable.Open(durable.Options{Blob: durable.NewMemStore(), PageSize: pageSize, Fsync: durable.FsyncOff, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	b := tmem.NewBackend(64, tmem.NewDataStore(pageSize))
	srv := NewServerStore(durable.NewStore(b, l))
	a, c := net.Pipe()
	go func() { _ = srv.ServeConn(c) }()
	cl := NewClient(a, pageSize)
	defer cl.Close()

	for _, kind := range []tmem.PoolKind{2, 7, -1} {
		if st, _, err := cl.do(OpNewPool, tmem.Key{Pool: 1, Object: tmem.ObjectID(kind)}, nil, nil); err != nil || st != tmem.EInval {
			t.Errorf("NewPool of kind %v = %v, %v; want E_INVAL", kind, st, err)
		}
	}
	pool, err := cl.NewPool(1, tmem.Persistent)
	if err != nil || pool != 0 {
		t.Fatalf("NewPool(Persistent) = %v, %v; want pool 0, the first one created", pool, err)
	}
	if !l.HasPool(pool) {
		t.Error("the persistent pool is not journaled")
	}
}

// TestRemoteTierOverWire drives a tmem.RemoteTier through a real Client —
// the RAMster-style topology smartmem-kvd's -remote flag assembles: a small
// front store whose overflow lands on a kvd peer across the wire.
func TestRemoteTierOverWire(t *testing.T) {
	peerClient, peer := pipeRig(t, 256)
	front := tmem.NewBackend(2, tmem.NewDataStore(pageSize))
	front.AttachTier(tmem.NewRemoteTier("kvd-peer", peerClient, 1000))

	pool := front.NewPool(1, tmem.Persistent)
	for i := 0; i < 8; i++ {
		if st := front.Put(tmem.Key{Pool: pool, Object: 3, Index: tmem.PageIndex(i)}, page(byte(i))); st != tmem.STmem {
			t.Fatalf("Put %d = %v", i, st)
		}
	}
	if got := peer.UsedBy(1000); got != 6 {
		t.Fatalf("peer absorbed %d pages, want 6", got)
	}
	dst := make([]byte, pageSize)
	for i := 7; i >= 0; i-- {
		key := tmem.Key{Pool: pool, Object: 3, Index: tmem.PageIndex(i)}
		if st := front.Get(key, dst); st != tmem.STmem || dst[0] != byte(i) {
			t.Fatalf("Get %d = %v (dst[0]=%#x)", i, st, dst[0])
		}
	}
	front.UnregisterVM(1)
	if got := peer.UsedBy(1000); got != 0 {
		t.Errorf("peer still holds %d pages after front VM shutdown", got)
	}
}

func TestBatchOpsOverWire(t *testing.T) {
	cl, _ := pipeRig(t, 1024)
	pool, err := cl.NewPool(1, tmem.Persistent)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	keys := make([]tmem.Key, n)
	datas := make([][]byte, n)
	sts := make([]tmem.Status, n)
	for i := range keys {
		keys[i] = tmem.Key{Pool: pool, Object: tmem.ObjectID(i >> 3), Index: tmem.PageIndex(i)}
		datas[i] = page(byte(i + 1))
	}
	if err := cl.PutBatch(keys, datas, sts); err != nil {
		t.Fatal(err)
	}
	for i, st := range sts {
		if st != tmem.STmem {
			t.Fatalf("batch put %d = %v", i, st)
		}
	}
	dsts := make([][]byte, n)
	for i := range dsts {
		dsts[i] = make([]byte, pageSize)
	}
	if err := cl.GetBatch(keys, dsts, sts); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if sts[i] != tmem.STmem {
			t.Fatalf("batch get %d = %v", i, sts[i])
		}
		if !bytes.Equal(dsts[i], datas[i]) {
			t.Fatalf("batch page %d corrupted over the wire", i)
		}
	}
	// Mixed hits and misses: flush half, get everything.
	for i := 0; i < n; i += 2 {
		if st, err := cl.FlushPage(keys[i]); err != nil || st != tmem.STmem {
			t.Fatalf("flush %d = %v, %v", i, st, err)
		}
	}
	if err := cl.GetBatch(keys, dsts, sts); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		want := tmem.STmem
		if i%2 == 0 {
			want = tmem.ETmem
		}
		if sts[i] != want {
			t.Fatalf("after flush, batch get %d = %v, want %v", i, sts[i], want)
		}
	}
}

// Batch frames longer than MaxBatch must be split transparently.
func TestBatchSplitsLongRuns(t *testing.T) {
	cl, _ := pipeRig(t, 2*MaxBatch+64)
	pool, err := cl.NewPool(1, tmem.Persistent)
	if err != nil {
		t.Fatal(err)
	}
	n := 2*MaxBatch + 17
	keys := make([]tmem.Key, n)
	sts := make([]tmem.Status, n)
	for i := range keys {
		keys[i] = tmem.Key{Pool: pool, Object: 1, Index: tmem.PageIndex(i)}
	}
	if err := cl.PutBatch(keys, nil, sts); err != nil {
		t.Fatal(err)
	}
	ok := 0
	for _, st := range sts {
		if st == tmem.STmem {
			ok++
		}
	}
	if ok != n {
		t.Errorf("batch landed %d pages, want all %d (backend has capacity for them)", ok, n)
	}
	if err := cl.GetBatch(keys, nil, sts); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, st := range sts {
		if st == tmem.STmem {
			hits++
		}
	}
	if hits != ok {
		t.Errorf("batch get hit %d pages, want %d", hits, ok)
	}
}

// A RemoteTier driving a Client over the wire must ship overflow runs as
// batch frames end to end (node -> wire -> kvd backend).
func TestRemoteTierBatchOverWire(t *testing.T) {
	peer := tmem.NewBackend(1<<16, tmem.NewDataStore(pageSize))
	srv := NewServerStore(peer)
	a, b := net.Pipe()
	go func() { _ = srv.ServeConn(b) }()
	cl := NewClient(a, pageSize)
	defer cl.Close()

	local := tmem.NewBackend(8, tmem.NewDataStore(pageSize))
	local.AttachTier(tmem.NewRemoteTier("kvd", cl, 77))
	pool := local.NewPool(1, tmem.Persistent)

	const n = 32
	keys := make([]tmem.Key, n)
	datas := make([][]byte, n)
	sts := make([]tmem.Status, n)
	for i := range keys {
		keys[i] = tmem.Key{Pool: pool, Object: 5, Index: tmem.PageIndex(i)}
		datas[i] = page(byte(i + 1))
	}
	local.PutBatch(keys, datas, sts)
	for i, st := range sts {
		if st != tmem.STmem {
			t.Fatalf("put %d = %v", i, st)
		}
	}
	if got := peer.UsedBy(77); got != n-8 {
		t.Fatalf("kvd absorbed %d pages, want %d", got, n-8)
	}
	// Overflowed pages read back correctly through the batched get path.
	dsts := make([][]byte, n)
	for i := range dsts {
		dsts[i] = make([]byte, pageSize)
	}
	local.GetBatch(keys, dsts, sts)
	for i := range keys {
		if sts[i] != tmem.STmem {
			t.Fatalf("get %d = %v", i, sts[i])
		}
		if !bytes.Equal(dsts[i], datas[i]) {
			t.Fatalf("page %d corrupted through the remote tier", i)
		}
	}
}

// TestClientConcurrentUse: one Client shared by 8 goroutines (run with
// -race) serializes its own exchanges — every answer matches the goroutine's
// private model of its own pool.
func TestClientConcurrentUse(t *testing.T) {
	backend := tmem.NewBackendOpts(4096, tmem.Options{
		Shards:   4,
		NewStore: func() tmem.PageStore { return tmem.NewDataStore(pageSize) },
	})
	srv := NewServerStore(backend)
	a, b := net.Pipe()
	go func() { _ = srv.ServeConn(b) }()
	cl := NewClient(a, pageSize)
	defer cl.Close()

	const workers, steps = 8, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			pool, err := cl.NewPool(tmem.VMID(seed), tmem.Persistent)
			if err != nil {
				t.Error(err)
				return
			}
			model := map[tmem.Key]byte{}
			key := func() tmem.Key {
				return tmem.Key{Pool: pool, Object: tmem.ObjectID(rng.Intn(3)), Index: tmem.PageIndex(rng.Intn(16))}
			}
			check := func(k tmem.Key, st tmem.Status, got []byte) {
				v, held := model[k]
				switch {
				case !held && st != tmem.ETmem:
					t.Errorf("worker %d: get %v = %v, want E_TMEM", seed, k, st)
				case held && (st != tmem.STmem || !bytes.Equal(got, page(v))):
					t.Errorf("worker %d: get %v = %v with other bytes, want S_TMEM and page %#x", seed, k, st, v)
				}
			}
			dst := make([]byte, pageSize)
			for i := 0; i < steps; i++ {
				switch rng.Intn(5) {
				case 0:
					k, v := key(), byte(rng.Intn(256))
					if st, err := cl.Put(k, page(v)); err != nil || st != tmem.STmem {
						t.Errorf("worker %d: put %v = %v, %v", seed, k, st, err)
					}
					model[k] = v
				case 1:
					k := key()
					st, err := cl.GetInto(k, dst)
					if err != nil {
						t.Error(err)
						return
					}
					check(k, st, dst)
				case 2:
					var keys []tmem.Key
					for len(keys) < 3 {
						if k := key(); !slices.Contains(keys, k) {
							keys = append(keys, k)
						}
					}
					datas, sts := make([][]byte, len(keys)), make([]tmem.Status, len(keys))
					for j := range keys {
						v := byte(rng.Intn(256))
						datas[j], model[keys[j]] = page(v), v
					}
					if err := cl.PutBatch(keys, datas, sts); err != nil {
						t.Error(err)
						return
					}
					for j, st := range sts {
						if st != tmem.STmem {
							t.Errorf("worker %d: batch put %v = %v", seed, keys[j], st)
						}
					}
				case 3:
					keys := []tmem.Key{key(), key(), key(), key()}
					dsts := [][]byte{make([]byte, pageSize), make([]byte, pageSize), make([]byte, pageSize), make([]byte, pageSize)}
					sts := make([]tmem.Status, len(keys))
					if err := cl.GetBatch(keys, dsts, sts); err != nil {
						t.Error(err)
						return
					}
					for j, k := range keys {
						check(k, sts[j], dsts[j])
					}
				case 4:
					obj := tmem.ObjectID(rng.Intn(3))
					want := 0
					for k := range model {
						if k.Object == obj {
							delete(model, k)
							want++
						}
					}
					n, st, err := cl.FlushObjectCount(pool, obj)
					if err != nil || int(n) != want || (want > 0) != (st == tmem.STmem) {
						t.Errorf("worker %d: flush object %d = %d, %v, %v; want %d pages", seed, obj, n, st, err, want)
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if err := backend.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
