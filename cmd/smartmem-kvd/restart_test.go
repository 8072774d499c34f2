package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"smartmem/internal/durable"
	"smartmem/internal/kvstore"
	"smartmem/internal/tmem"
)

// The kill-and-restart e2e re-execs the test binary as a real daemon
// process (so SIGKILL is a genuine kill, not a simulated one). When the
// helper env var is set, TestMain runs the daemon instead of the tests.
const (
	e2eHelperEnv = "SMARTMEM_KVD_E2E_HELPER"
	e2eDirEnv    = "SMARTMEM_KVD_E2E_DIR"
)

func TestMain(m *testing.M) {
	if os.Getenv(e2eHelperEnv) == "1" {
		runE2EHelper()
		return
	}
	os.Exit(m.Run())
}

// runE2EHelper is the daemon side: a durable fsync=always KV store on an
// ephemeral loopback port, address announced on stdout as "E2E_ADDR <addr>".
func runE2EHelper() {
	dir := os.Getenv(e2eDirEnv)
	if dir == "" {
		fmt.Fprintln(os.Stderr, "helper: "+e2eDirEnv+" not set")
		os.Exit(1)
	}
	backend := newBackend(4096, 2)
	node, err := openDurable(backend, dir, durable.FsyncAlways, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	fmt.Printf("E2E_ADDR %s\n", l.Addr())
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if err := serveKV(l, node, sigs, drainTimeout, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
}

// e2eDaemon wraps one helper process: its address, and its full output for
// post-mortem assertions.
type e2eDaemon struct {
	cmd  *exec.Cmd
	addr string
	out  *bytes.Buffer
	done chan error
}

func startE2EDaemon(t *testing.T, dir string) *e2eDaemon {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), e2eHelperEnv+"=1", e2eDirEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &e2eDaemon{cmd: cmd, out: &bytes.Buffer{}, done: make(chan error, 1)}
	addrc := make(chan string, 1)
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.out.WriteString(line + "\n")
			if rest, ok := strings.CutPrefix(line, "E2E_ADDR "); ok {
				addrc <- rest
			}
		}
		close(addrc)
	}()
	// Wait closes the pipe, so it must not run before the last line is
	// read: a done daemon has its whole output in d.out.
	go func() {
		<-scanned
		d.done <- cmd.Wait()
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			cmd.Process.Kill()
			t.Fatalf("daemon exited before announcing address:\n%s", d.out.String())
		}
		d.addr = addr
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon did not announce address:\n%s", d.out.String())
	}
	return d
}

func (d *e2eDaemon) dial(t *testing.T) *kvstore.Client {
	t.Helper()
	conn, err := kvstore.DialRetry("tcp", d.addr, 20, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("dial daemon: %v", err)
	}
	return kvstore.NewClient(conn, pageSize)
}

func (d *e2eDaemon) wait(t *testing.T) {
	t.Helper()
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		t.Fatalf("daemon did not exit:\n%s", d.out.String())
	}
}

func e2ePage(tag byte, i int) []byte {
	p := make([]byte, pageSize)
	for j := range p {
		p[j] = byte(j) ^ tag ^ byte(i*13)
	}
	return p
}

// TestKillRestartZeroLoss is the durability acceptance test over the real
// wire: write persistent pages to a -durable daemon, SIGKILL it mid-flight,
// restart it against the same directory, and read every acknowledged page
// back byte-identical. A second, graceful restart then proves the clean
// shutdown marker short-circuits WAL replay.
func TestKillRestartZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec e2e skipped in -short")
	}
	dir := t.TempDir()

	// --- first life: seed, then SIGKILL ---
	d1 := startE2EDaemon(t, dir)
	cl := d1.dial(t)
	pool, err := cl.NewPool(7, tmem.Persistent)
	if err != nil {
		t.Fatal(err)
	}

	const n = 96
	keys := make([]tmem.Key, n)
	datas := make([][]byte, n)
	sts := make([]tmem.Status, n)
	for i := range keys {
		keys[i] = tmem.Key{Pool: pool, Object: tmem.ObjectID(i / 16), Index: tmem.PageIndex(i)}
		datas[i] = e2ePage(0xA5, i)
	}
	if err := cl.PutBatch(keys, datas, sts); err != nil {
		t.Fatal(err)
	}
	for i, st := range sts {
		if st != tmem.STmem {
			t.Fatalf("put %d not acknowledged: %v", i, st)
		}
	}
	// Overwrites must supersede, and flushed pages must stay flushed.
	expect := make(map[tmem.Key][]byte, n)
	for i := range keys {
		expect[keys[i]] = datas[i]
	}
	for i := 0; i < n; i += 7 {
		upd := e2ePage(0x3C, i)
		if st, err := cl.Put(keys[i], upd); err != nil || st != tmem.STmem {
			t.Fatalf("overwrite %d: %v, %v", i, st, err)
		}
		expect[keys[i]] = upd
	}
	flushed := map[tmem.Key]bool{}
	for i := 3; i < n; i += 17 {
		if _, err := cl.FlushPage(keys[i]); err != nil {
			t.Fatal(err)
		}
		delete(expect, keys[i])
		flushed[keys[i]] = true
	}
	// An ephemeral pool is droppable by contract: it must NOT resurrect.
	ephPool, err := cl.NewPool(7, tmem.Ephemeral)
	if err != nil {
		t.Fatal(err)
	}
	ephKey := tmem.Key{Pool: ephPool, Object: 1, Index: 1}
	if _, err := cl.Put(ephKey, e2ePage(0x55, 1)); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	// Every page above was acknowledged over the wire, so under
	// fsync=always each is in the WAL. Kill without ceremony.
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d1.wait(t)

	// --- second life: recover, verify byte-identical, SIGTERM ---
	d2 := startE2EDaemon(t, dir)
	if !strings.Contains(d2.out.String(), "recovered") {
		t.Errorf("restart output missing recovery summary:\n%s", d2.out.String())
	}
	cl2 := d2.dial(t)
	got := make([]byte, pageSize)
	for key, want := range expect {
		st, data, err := cl2.Get(key)
		if err != nil || st != tmem.STmem {
			t.Fatalf("get %v after restart: %v, %v", key, st, err)
		}
		copy(got, data)
		if !bytes.Equal(got, want) {
			t.Fatalf("page %v not byte-identical after SIGKILL restart", key)
		}
	}
	for key := range flushed {
		if st, _, err := cl2.Get(key); err != nil || st == tmem.STmem {
			t.Fatalf("flushed page %v resurrected: %v, %v", key, st, err)
		}
	}
	if st, _, err := cl2.Get(ephKey); err != nil || st == tmem.STmem {
		t.Fatalf("ephemeral page survived a crash: %v, %v", st, err)
	}
	// The recovered pool keeps accepting writes under its original id.
	post := tmem.Key{Pool: pool, Object: 999, Index: 0}
	postData := e2ePage(0x77, 999)
	if st, err := cl2.Put(post, postData); err != nil || st != tmem.STmem {
		t.Fatalf("post-recovery put: %v, %v", st, err)
	}
	expect[post] = postData
	cl2.Close()
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	d2.wait(t)
	if !strings.Contains(d2.out.String(), "clean shutdown marker written") {
		t.Errorf("graceful shutdown did not write the clean marker:\n%s", d2.out.String())
	}

	// --- third life: warm start from the marker, data still intact ---
	d3 := startE2EDaemon(t, dir)
	if !strings.Contains(d3.out.String(), "clean shutdown marker") {
		t.Errorf("warm start did not use the clean marker:\n%s", d3.out.String())
	}
	cl3 := d3.dial(t)
	for key, want := range expect {
		st, data, err := cl3.Get(key)
		if err != nil || st != tmem.STmem || !bytes.Equal(data, want) {
			t.Fatalf("get %v after warm restart: %v, %v", key, st, err)
		}
	}
	cl3.Close()
	if err := d3.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	d3.wait(t)
}
