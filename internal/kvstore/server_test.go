package kvstore

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"smartmem/internal/mem"
	"smartmem/internal/tmem"
)

func shardedBackend(pages mem.Pages, shards int) *tmem.Backend {
	return tmem.NewBackendOpts(pages, tmem.Options{
		Shards:   shards,
		NewStore: func() tmem.PageStore { return tmem.NewDataStore(pageSize) },
	})
}

// The wire semantics must be independent of the backend's shard count.
func TestShardedBackendOverWire(t *testing.T) {
	backend := shardedBackend(256, 8)
	srv := NewServerStore(backend)
	a, b := net.Pipe()
	go func() { _ = srv.ServeConn(b) }()
	cl := NewClient(a, pageSize)
	defer cl.Close()

	pool, err := cl.NewPool(1, tmem.Persistent)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		key := tmem.Key{Pool: pool, Object: tmem.ObjectID(i % 3), Index: tmem.PageIndex(i)}
		if st, err := cl.Put(key, page(byte(i))); err != nil || st != tmem.STmem {
			t.Fatalf("Put %d = %v, %v", i, st, err)
		}
		st, got, err := cl.Get(key)
		if err != nil || st != tmem.STmem || got[0] != byte(i) {
			t.Fatalf("Get %d = %v, %v", i, st, err)
		}
	}
	if err := backend.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// A client may stream many requests before reading any response; the
// server must answer all of them, in order.
func TestPipelinedRequests(t *testing.T) {
	srv := NewServerStore(shardedBackend(256, 4))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	go func() { _ = srv.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl := NewClient(conn, pageSize)
	pool, err := cl.NewPool(1, tmem.Persistent)
	if err != nil {
		t.Fatal(err)
	}

	// Write a burst of puts followed by one get, without reading a single
	// response in between.
	const burst = 32
	var reqs []byte
	for i := 0; i < burst; i++ {
		key := tmem.Key{Pool: pool, Object: 7, Index: tmem.PageIndex(i)}
		reqs = append(reqs, OpPut)
		reqs = key.AppendWire(reqs)
		reqs = binary.BigEndian.AppendUint32(reqs, 1)
		reqs = append(reqs, byte(i))
	}
	last := tmem.Key{Pool: pool, Object: 7, Index: 5}
	reqs = append(reqs, OpGet)
	reqs = last.AppendWire(reqs)
	reqs = binary.BigEndian.AppendUint32(reqs, 0)
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < burst+1; i++ {
		var hdr [5]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		st := tmem.Status(int8(hdr[0]))
		if st != tmem.STmem {
			t.Fatalf("response %d status = %v", i, st)
		}
		n := binary.BigEndian.Uint32(hdr[1:5])
		payload := make([]byte, n)
		if _, err := io.ReadFull(conn, payload); err != nil {
			t.Fatal(err)
		}
		if i == burst && payload[0] != 5 {
			t.Errorf("pipelined get returned wrong page: %#x", payload[0])
		}
	}
}

// Shutdown stops accepting, lets idle-free connections drain, and forces
// the stragglers closed once the context expires.
func TestShutdownDrainsAndForces(t *testing.T) {
	backend := shardedBackend(128, 2)
	srv := NewServerStore(backend)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl := NewClient(conn, pageSize)
	pool, err := cl.NewPool(1, tmem.Persistent)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := cl.Put(tmem.Key{Pool: pool, Object: 1, Index: 1}, page(0xEE)); err != nil || st != tmem.STmem {
		t.Fatalf("Put = %v, %v", st, err)
	}

	// The client stays connected, so the drain must time out and force
	// the connection closed.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Errorf("Shutdown = %v, want DeadlineExceeded (held connection)", err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Errorf("Serve after Shutdown = %v, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}

	// New connections must be rejected.
	if c2, err := net.Dial("tcp", l.Addr().String()); err == nil {
		c2.Close()
		t.Error("listener still accepting after Shutdown")
	}
	// The store survives with its state intact.
	if used := backend.UsedBy(1); used != 1 {
		t.Errorf("backend used = %d after shutdown, want 1", used)
	}
}

func TestShutdownWithNoConnections(t *testing.T) {
	srv := NewServerStore(shardedBackend(16, 1))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	time.Sleep(10 * time.Millisecond)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("Shutdown = %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("Serve = %v, want nil after graceful stop", err)
	}
	// Serve on a shut-down server fails fast.
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		defer l2.Close()
		if err := srv.Serve(l2); err == nil {
			t.Error("Serve on shut-down server did not fail")
		}
	}
}

// TestShutdownReleasesStore pins that a shut-down server keeps none of its
// stack alive: one GC after Shutdown, the backend, and with it every page
// it stores, is gone. The runtime's list of used sync.Pools survives one
// GC, so a pool embedded by value in Server or Backend would keep them
// alive one GC longer.
func TestShutdownReleasesStore(t *testing.T) {
	backend := func() weak.Pointer[tmem.Backend] {
		backend := tmem.NewBackend(64, tmem.NewDataStore(pageSize))
		srv := NewServerStore(backend)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback unavailable: %v", err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve(l) }()
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		cl := NewClient(conn, pageSize)
		pool, err := cl.NewPool(1, tmem.Persistent)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]tmem.Key, 16)
		datas := make([][]byte, len(keys))
		sts := make([]tmem.Status, len(keys))
		for i := range keys {
			keys[i] = tmem.Key{Pool: pool, Object: 1, Index: tmem.PageIndex(i)}
			datas[i] = page(byte(i + 1))
		}
		if err := cl.PutBatch(keys, datas, sts); err != nil || sts[0] != tmem.STmem {
			t.Fatalf("PutBatch = %v, sts[0] = %v", err, sts[0])
		}
		cl.Close()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("Shutdown = %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Fatalf("Serve = %v", err)
		}
		return weak.Make(backend)
	}()
	runtime.GC()
	if backend.Value() != nil {
		t.Error("backend still reachable one GC after Shutdown")
	}
}

// benchServer measures end-to-end KV throughput over TCP loopback with one
// connection per benchmark goroutine.
func benchServer(b *testing.B, shards int) {
	srv := NewServerStore(shardedBackend(1<<18, shards))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	go func() { _ = srv.Serve(l) }()

	var mu sync.Mutex
	var worker uint64
	payload := page(0xAB)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			b.Error(err)
			return
		}
		cl := NewClient(conn, pageSize)
		defer cl.Close()
		mu.Lock()
		worker++
		vm := tmem.VMID(worker)
		mu.Unlock()
		pool, err := cl.NewPool(vm, tmem.Persistent)
		if err != nil {
			b.Error(err)
			return
		}
		i := uint64(0)
		for pb.Next() {
			i++
			key := tmem.Key{Pool: pool, Object: tmem.ObjectID(i >> 12), Index: tmem.PageIndex(i)}
			if st, err := cl.Put(key, payload); err != nil || st != tmem.STmem {
				b.Errorf("Put = %v, %v", st, err)
				return
			}
			if st, _, err := cl.Get(key); err != nil || st != tmem.STmem {
				b.Errorf("Get = %v, %v", st, err)
				return
			}
			if st, err := cl.FlushPage(key); err != nil || st != tmem.STmem {
				b.Errorf("Flush = %v, %v", st, err)
				return
			}
		}
	})
}

// BenchmarkKVServerPipelined measures the serve loop the way the open-loop
// load generator drives it: requests streamed without waiting for
// responses, so the per-op cost is the server's read-dispatch-write work
// rather than a loopback round trip. The get case pins the single-copy
// response path (page -> socket buffer, no response arena); the
// get-batch case pins the streamed batch response (one copy per page
// instead of three).
func BenchmarkKVServerPipelined(b *testing.B) {
	newServed := func(b *testing.B) (*tmem.Backend, net.Addr) {
		backend := shardedBackend(1<<18, 1)
		srv := NewServerStore(backend)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Skipf("loopback unavailable: %v", err)
		}
		b.Cleanup(func() { l.Close() })
		go func() { _ = srv.Serve(l) }()
		return backend, l.Addr()
	}
	const seeded = 1024
	seed := func(backend *tmem.Backend) tmem.PoolID {
		pool := backend.NewPool(1, tmem.Persistent)
		pl := page(0xCD)
		for i := 0; i < seeded; i++ {
			key := tmem.Key{Pool: pool, Object: tmem.ObjectID(i >> 6), Index: tmem.PageIndex(i)}
			if st := backend.Put(key, pl); st != tmem.STmem {
				b.Fatalf("seed put = %v", st)
			}
		}
		return pool
	}

	b.Run("get", func(b *testing.B) {
		backend, addr := newServed(b)
		pool := seed(backend)
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		b.SetBytes(pageSize)
		b.ResetTimer()
		go func() {
			bw := bufio.NewWriterSize(conn, 64<<10)
			var req [reqHeaderSize]byte
			req[0] = OpGet
			for i := 0; i < b.N; i++ {
				key := tmem.Key{Pool: pool, Object: tmem.ObjectID(i % seeded >> 6), Index: tmem.PageIndex(i % seeded)}
				key.AppendWire(req[1:1])
				if _, err := bw.Write(req[:]); err != nil {
					return
				}
			}
			_ = bw.Flush()
		}()
		br := bufio.NewReaderSize(conn, 64<<10)
		resp := make([]byte, 5+pageSize)
		for i := 0; i < b.N; i++ {
			if _, err := io.ReadFull(br, resp); err != nil {
				b.Fatalf("response %d: %v", i, err)
			}
			if st := tmem.Status(int8(resp[0])); st != tmem.STmem {
				b.Fatalf("get %d = %v", i, st)
			}
		}
	})

	b.Run("get-batch-256", func(b *testing.B) {
		backend, addr := newServed(b)
		pool := seed(backend)
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			b.Fatal(err)
		}
		cl := NewClient(conn, pageSize)
		defer cl.Close()
		keys := make([]tmem.Key, MaxBatch)
		sts := make([]tmem.Status, MaxBatch)
		for i := range keys {
			keys[i] = tmem.Key{Pool: pool, Object: tmem.ObjectID(i % seeded >> 6), Index: tmem.PageIndex(i % seeded)}
		}
		b.SetBytes(pageSize)
		b.ResetTimer()
		for done := 0; done < b.N; done += len(keys) {
			n := min(len(keys), b.N-done)
			if err := cl.GetBatch(keys[:n], nil, sts[:n]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKVServer compares the daemon's end-to-end throughput on a
// single-stripe store (the old global mutex) against a striped one, one
// stripe per CPU (eight on one CPU). The row names do not carry the count,
// so runs on different hosts compare. Run with -cpu matching the serving
// cores to see the scaling.
func BenchmarkKVServer(b *testing.B) {
	striped := runtime.GOMAXPROCS(0)
	if striped == 1 {
		striped = 8
	}
	b.Run("single-stripe", func(b *testing.B) { benchServer(b, 1) })
	b.Run("striped", func(b *testing.B) { benchServer(b, striped) })
}
