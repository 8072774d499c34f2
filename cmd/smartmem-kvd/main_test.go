package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"smartmem/internal/kvstore"
	"smartmem/internal/tmem"
)

func TestNewBackendShardSizing(t *testing.T) {
	if got := newBackend(1024, 4).Shards(); got != 4 {
		t.Errorf("Shards = %d, want 4", got)
	}
	if got := newBackend(1024, 3).Shards(); got != 4 {
		t.Errorf("Shards(3) = %d, want 4 (power of two)", got)
	}
	if got := newBackend(1024, 0).Shards(); got < 1 {
		t.Errorf("Shards(0) = %d, want >= 1 (GOMAXPROCS default)", got)
	}
	if ps := newBackend(16, 1).PageSize(); int(ps) != pageSize {
		t.Errorf("PageSize = %d, want %d", ps, pageSize)
	}
}

// End-to-end loopback test: start the daemon's serving loop, run
// concurrent put/get/flush round trips from several clients, then deliver
// a signal and verify the graceful shutdown path (drain + final stats).
func TestKVDaemonEndToEnd(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	backend := newBackend(4096, 4)
	sigs := make(chan os.Signal, 1)
	var out bytes.Buffer
	served := make(chan error, 1)
	go func() { served <- serveKV(l, kvNode{store: backend, backend: backend}, sigs, time.Second, &out) }()

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
			cl := kvstore.NewClient(conn, pageSize)
			defer cl.Close()
			pool, err := cl.NewPool(vm, tmem.Persistent)
			if err != nil {
				errs <- err
				return
			}
			page := make([]byte, pageSize)
			for j := 0; j < 64; j++ {
				page[0] = byte(vm)
				key := tmem.Key{Pool: pool, Object: tmem.ObjectID(j % 3), Index: tmem.PageIndex(j)}
				if st, err := cl.Put(key, page); err != nil || st != tmem.STmem {
					errs <- fmt.Errorf("vm %d put %d: status %v, err %v", vm, j, st, err)
					return
				}
				st, got, err := cl.Get(key)
				if err != nil || st != tmem.STmem || len(got) == 0 || got[0] != byte(vm) {
					errs <- fmt.Errorf("vm %d get %d: status %v, data %v, err %v", vm, j, st, got, err)
					return
				}
				if j%2 == 0 {
					if st, err := cl.FlushPage(key); err != nil || st != tmem.STmem {
						errs <- fmt.Errorf("vm %d flush %d: status %v, err %v", vm, j, st, err)
						return
					}
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

	sigs <- syscall.SIGTERM
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serveKV = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveKV did not return after SIGTERM")
	}

	if err := backend.CheckInvariants(); err != nil {
		t.Error(err)
	}
	log := out.String()
	if !strings.Contains(log, "draining connections") {
		t.Errorf("shutdown log missing drain notice:\n%s", log)
	}
	if !strings.Contains(log, "final store state") {
		t.Errorf("shutdown log missing final stats:\n%s", log)
	}
	for vm := 1; vm <= clients; vm++ {
		c, ok := backend.Counts(tmem.VMID(vm))
		if !ok || c.PutsSucc != 64 || c.GetsHit != 64 || c.Flushes != 32 {
			t.Errorf("vm %d counts = %+v (ok=%v), want 64 puts, 64 gets, 32 flushes", vm, c, ok)
		}
	}
	// New connections are refused after shutdown.
	if c, err := net.Dial("tcp", l.Addr().String()); err == nil {
		c.Close()
		t.Error("daemon still accepting after shutdown")
	}
}

// A client that never disconnects must not wedge the shutdown: the drain
// deadline forces it closed and serveKV still reports final stats.
func TestKVDaemonForcedDrain(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	backend := newBackend(256, 2)
	sigs := make(chan os.Signal, 1)
	var out bytes.Buffer
	served := make(chan error, 1)
	go func() {
		served <- serveKV(l, kvNode{store: backend, backend: backend}, sigs, 50*time.Millisecond, &out)
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl := kvstore.NewClient(conn, pageSize)
	if _, err := cl.NewPool(1, tmem.Persistent); err != nil {
		t.Fatal(err)
	}
	// Leave the connection open and signal shutdown.
	sigs <- syscall.SIGINT
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serveKV = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveKV hung on a held connection")
	}
	if !strings.Contains(out.String(), "forced close after drain timeout") {
		t.Errorf("log missing forced-close notice:\n%s", out.String())
	}
}

// Two chained daemons over real TCP: a small front store shipping its
// overflow to a roomier peer daemon — the topology -remote assembles. Puts
// beyond the front's capacity must succeed via the peer, survive a
// front-store miss on the way back, and vanish everywhere on flush.
func TestChainedDaemonsRemoteTier(t *testing.T) {
	peerL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	frontL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}

	peerBackend := newBackend(1024, 2)
	frontBackend := newBackend(8, 2)

	peerSigs := make(chan os.Signal, 1)
	frontSigs := make(chan os.Signal, 1)
	var peerOut, frontOut bytes.Buffer
	peerServed := make(chan error, 1)
	frontServed := make(chan error, 1)
	go func() {
		peerServed <- serveKV(peerL, kvNode{store: peerBackend, backend: peerBackend}, peerSigs, time.Second, &peerOut)
	}()

	// Wire the front daemon's remote tier exactly like -remote does: one
	// wire client shared by every connection handler.
	conn, err := net.Dial("tcp", peerL.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	svc := kvstore.NewClient(conn, pageSize)
	frontBackend.AttachTier(tmem.NewRemoteTier("kvd-peer", svc, 1000))
	go func() {
		frontServed <- serveKV(frontL, kvNode{store: frontBackend, backend: frontBackend}, frontSigs, time.Second, &frontOut)
	}()

	// Several concurrent clients overflow through the single shared wire
	// client first; frame interleaving on the peer conn would corrupt the
	// protocol (run with -race).
	const churners = 4
	var cwg sync.WaitGroup
	cerrs := make(chan error, churners)
	for c := 0; c < churners; c++ {
		cwg.Add(1)
		go func(vm tmem.VMID) {
			defer cwg.Done()
			cc, err := net.Dial("tcp", frontL.Addr().String())
			if err != nil {
				cerrs <- err
				return
			}
			ccl := kvstore.NewClient(cc, pageSize)
			defer ccl.Close()
			pool, err := ccl.NewPool(vm, tmem.Persistent)
			if err != nil {
				cerrs <- err
				return
			}
			buf := make([]byte, pageSize)
			for j := 0; j < 48; j++ {
				buf[0], buf[1] = byte(vm), byte(j)
				key := tmem.Key{Pool: pool, Object: 9, Index: tmem.PageIndex(j)}
				if st, err := ccl.Put(key, buf); err != nil || st != tmem.STmem {
					cerrs <- fmt.Errorf("vm %d put %d = %v, %v", vm, j, st, err)
					return
				}
				st, got, err := ccl.Get(key)
				if err != nil || st != tmem.STmem || got[0] != byte(vm) || got[1] != byte(j) {
					cerrs <- fmt.Errorf("vm %d get %d = %v, %v (got %v)", vm, j, st, err, got[:2])
					return
				}
				if st, err := ccl.FlushPage(key); err != nil || st != tmem.STmem {
					cerrs <- fmt.Errorf("vm %d flush %d = %v, %v", vm, j, st, err)
					return
				}
			}
		}(tmem.VMID(10 + c))
	}
	cwg.Wait()
	close(cerrs)
	for err := range cerrs {
		t.Fatal(err)
	}

	cconn, err := net.Dial("tcp", frontL.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cl := kvstore.NewClient(cconn, pageSize)
	pool, err := cl.NewPool(1, tmem.Persistent)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, pageSize)
	const total = 32 // 4x the front store's 8 frames
	for i := 0; i < total; i++ {
		page[0] = byte(i)
		key := tmem.Key{Pool: pool, Object: 1, Index: tmem.PageIndex(i)}
		if st, err := cl.Put(key, page); err != nil || st != tmem.STmem {
			t.Fatalf("put %d = %v, %v (overflow not absorbed by peer)", i, st, err)
		}
	}
	if got := peerBackend.UsedBy(1000); got != total-8 {
		t.Errorf("peer absorbed %d pages, want %d", got, total-8)
	}
	for i := total - 1; i >= 0; i-- {
		key := tmem.Key{Pool: pool, Object: 1, Index: tmem.PageIndex(i)}
		st, got, err := cl.Get(key)
		if err != nil || st != tmem.STmem || got[0] != byte(i) {
			t.Fatalf("get %d = %v, %v (data %v)", i, st, err, got[:1])
		}
		if st, err := cl.FlushPage(key); err != nil || st != tmem.STmem {
			t.Fatalf("flush %d = %v, %v", i, st, err)
		}
	}
	if used := frontBackend.TotalPages() - frontBackend.FreePages(); used != 0 {
		t.Errorf("front store still holds %d pages", used)
	}
	if got := peerBackend.UsedBy(1000); got != 0 {
		t.Errorf("peer still holds %d remote pages", got)
	}
	cl.Close()

	frontSigs <- os.Interrupt
	if err := <-frontServed; err != nil {
		t.Errorf("front daemon exit: %v", err)
	}
	peerSigs <- os.Interrupt
	if err := <-peerServed; err != nil {
		t.Errorf("peer daemon exit: %v", err)
	}
	if !strings.Contains(frontOut.String(), "tier kvd-peer") {
		t.Errorf("front daemon final stats lack tier line:\n%s", frontOut.String())
	}
}

// Batch frames against the live daemon: concurrent clients ship runs
// through OpPutBatch/OpGetBatch while others issue per-page ops on the
// same pipelined server.
func TestKVDaemonBatchFrames(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	backend := newBackend(1<<16, 4)
	sigs := make(chan os.Signal, 1)
	var out bytes.Buffer
	served := make(chan error, 1)
	go func() { served <- serveKV(l, kvNode{store: backend, backend: backend}, sigs, time.Second, &out) }()

	const clients = 4
	const run = 48
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
			cl := kvstore.NewClient(conn, pageSize)
			defer cl.Close()
			pool, err := cl.NewPool(vm, tmem.Persistent)
			if err != nil {
				errs <- err
				return
			}
			keys := make([]tmem.Key, run)
			datas := make([][]byte, run)
			sts := make([]tmem.Status, run)
			dsts := make([][]byte, run)
			for j := range keys {
				keys[j] = tmem.Key{Pool: pool, Object: 1, Index: tmem.PageIndex(j)}
				datas[j] = bytes.Repeat([]byte{byte(vm)}, pageSize)
				dsts[j] = make([]byte, pageSize)
			}
			for round := 0; round < 4; round++ {
				if err := cl.PutBatch(keys, datas, sts); err != nil {
					errs <- fmt.Errorf("vm %d put-batch: %v", vm, err)
					return
				}
				for j, st := range sts {
					if st != tmem.STmem {
						errs <- fmt.Errorf("vm %d put-batch item %d: %v", vm, j, st)
						return
					}
				}
				if err := cl.GetBatch(keys, dsts, sts); err != nil {
					errs <- fmt.Errorf("vm %d get-batch: %v", vm, err)
					return
				}
				for j, st := range sts {
					if st != tmem.STmem || dsts[j][0] != byte(vm) {
						errs <- fmt.Errorf("vm %d get-batch item %d: %v (byte %d)", vm, j, st, dsts[j][0])
						return
					}
				}
				// Interleave a per-page op on the same pipelined conn.
				if st, err := cl.FlushPage(keys[0]); err != nil || st != tmem.STmem {
					errs <- fmt.Errorf("vm %d interleaved flush: %v, %v", vm, st, err)
					return
				}
				if st, err := cl.Put(keys[0], datas[0]); err != nil || st != tmem.STmem {
					errs <- fmt.Errorf("vm %d interleaved put: %v, %v", vm, st, err)
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
	for vm := 1; vm <= clients; vm++ {
		if got := backend.UsedBy(tmem.VMID(vm)); got != run {
			t.Errorf("vm %d holds %d pages, want %d", vm, got, run)
		}
	}
	sigs <- syscall.SIGTERM
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serveKV = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveKV did not return after SIGTERM")
	}
}
