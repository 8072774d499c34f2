package kvstore

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"smartmem/internal/tmem"
)

// startMetricsServer brings up a served listener with metrics attached and
// returns a connected client plus the metrics set.
func startMetricsServer(t *testing.T) (*Client, *Metrics) {
	t.Helper()
	backend := tmem.NewBackend(1024, tmem.NewDataStore(4096))
	srv := NewServerStore(backend)
	m := NewMetrics()
	srv.SetMetrics(m)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { l.Close() })
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	cl := NewClient(conn, int(backend.PageSize()))
	t.Cleanup(func() { cl.Close() })
	return cl, m
}

// waitFor polls until cond holds or the deadline passes; the serve loop
// records metrics after enqueueing the response, so a client that has the
// response may race the counter by a scheduling beat.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerMetricsCountOps(t *testing.T) {
	cl, m := startMetricsServer(t)
	pool, err := cl.NewPool(1, tmem.Persistent)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	page := make([]byte, 4096)
	key := tmem.Key{Pool: pool, Object: 1, Index: 2}
	const puts = 10
	for i := 0; i < puts; i++ {
		if st, err := cl.Put(key, page); err != nil || st != tmem.STmem {
			t.Fatalf("Put = %v, %v", st, err)
		}
	}
	if st, _, err := cl.Get(key); err != nil || st != tmem.STmem {
		t.Fatalf("Get = %v, %v", st, err)
	}
	if st, err := cl.FlushPage(key); err != nil || st != tmem.STmem {
		t.Fatalf("Flush = %v, %v", st, err)
	}
	keys := []tmem.Key{{Pool: pool, Object: 2, Index: 0}, {Pool: pool, Object: 2, Index: 1}}
	sts := make([]tmem.Status, len(keys))
	if err := cl.PutBatch(keys, [][]byte{page, page}, sts); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if err := cl.GetBatch(keys, nil, sts); err != nil {
		t.Fatalf("GetBatch: %v", err)
	}

	waitFor(t, func() bool { return m.OpHistogram(OpGetBatch).Count() == 1 })
	checks := map[byte]uint64{
		OpNewPool: 1, OpPut: puts, OpGet: 1, OpFlushPage: 1,
		OpPutBatch: 1, OpGetBatch: 1,
	}
	for op, want := range checks {
		h := m.OpHistogram(op)
		if got := h.Count(); got != want {
			t.Errorf("op %s: count = %d, want %d", OpName(op), got, want)
		}
		if h.Count() > 0 && h.Quantile(1) < 0 {
			t.Errorf("op %s: negative latency", OpName(op))
		}
	}
	if m.BytesIn() == 0 || m.BytesOut() == 0 {
		t.Errorf("byte counters not recorded: in=%d out=%d", m.BytesIn(), m.BytesOut())
	}
	// A get response carries the page; bytes out must reflect it.
	if m.BytesOut() < 4096 {
		t.Errorf("BytesOut = %d, want >= one page", m.BytesOut())
	}
	if m.ConnsTotal() != 1 || m.ConnsActive() != 1 {
		t.Errorf("conns = %d total / %d active, want 1/1", m.ConnsTotal(), m.ConnsActive())
	}
	cl.Close()
	waitFor(t, func() bool { return m.ConnsActive() == 0 })
}

func TestServerMetricsProtoError(t *testing.T) {
	unknownOp := make([]byte, reqHeaderSize)
	unknownOp[0] = 99
	// One well-formed empty item, then a byte no item claims: malformed, as
	// a get-batch frame of the wrong length is.
	body := binary.BigEndian.AppendUint32(nil, 1)
	body = binary.BigEndian.AppendUint32(tmem.Key{}.AppendWire(body), 0)
	body = append(body, 7)
	trailing := binary.BigEndian.AppendUint32(tmem.Key{}.AppendWire([]byte{OpPutBatch}), uint32(len(body)))
	trailing = append(trailing, body...)
	// A malformed request kills the connection and counts a protocol error.
	for _, tc := range []struct {
		name string
		req  []byte
	}{
		{"unknown-op", unknownOp},
		{"put-batch-trailing-bytes", trailing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, m := startMetricsServer(t)
			if _, err := cl.c.Write(tc.req); err != nil {
				t.Fatalf("write: %v", err)
			}
			waitFor(t, func() bool { return m.ProtoErrors() == 1 })
		})
	}
}

func TestOpNames(t *testing.T) {
	for _, op := range Ops() {
		if OpName(op) == "" {
			t.Errorf("op %d has no name", op)
		}
	}
	if OpName(0) != "" || OpName(200) != "" {
		t.Error("invalid ops must have empty names")
	}
}
