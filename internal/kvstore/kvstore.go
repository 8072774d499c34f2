// Package kvstore exposes the tmem backend as a network key–value service:
// the page-copy put/get/flush interface of the paper served over any
// net.Conn with a compact binary protocol. It demonstrates that the tmem
// store is a genuine key–value system (paper §II-B: "a key–value store
// with synchronous put, get and flush operations") and provides the
// transport used by cmd/smartmem-kvd.
//
// Wire protocol (big-endian). Request:
//
//	[1 byte op][16 byte key][4 byte len][len bytes data]
//
// Response:
//
//	[1 byte status][4 byte len][len bytes data]
//
// Ops: 1=put, 2=get, 3=flush-page, 4=flush-object, 5=new-pool (key.Pool
// carries the VM id and key.Object the pool kind; the response status
// carries the new pool id, which is non-negative and therefore disjoint
// from the negative error statuses), 6=destroy-pool (key.Pool carries the
// pool id), 7=put-batch, 8=get-batch.
//
// Batch frames (7, 8) ship a whole run of page operations in one request —
// the store-level amortization RAMster-style remote tmem relies on: a
// remote tier with a run of overflow pages pays one network round trip
// instead of one per page. The 16-byte key field of the request header is
// ignored; the payload carries the run:
//
//	put-batch request payload:  [4 count] count × ([16 key][4 len][len data])
//	put-batch response payload: count × [1 status]
//	get-batch request payload:  [4 count] count × [16 key]
//	get-batch response payload: count × ([1 status][4 len][len data])
//
// Batch payloads may exceed the page size (up to MaxBatch items); all other
// ops stay capped at one page.
//
// Requests are processed in order per connection but may be pipelined: the
// server keeps reading while responses accumulate in a buffered writer
// that is flushed when the inbound stream drains. Combined with a sharded
// backend (tmem.NewBackendOpts) the goroutine-per-connection server scales
// across cores instead of serializing on one store mutex.
package kvstore

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"smartmem/internal/mem"
	"smartmem/internal/tmem"
)

// Op codes.
const (
	OpPut         byte = 1
	OpGet         byte = 2
	OpFlushPage   byte = 3
	OpFlushObject byte = 4
	OpNewPool     byte = 5
	OpDestroyPool byte = 6
	OpPutBatch    byte = 7
	OpGetBatch    byte = 8
)

// MaxBatch is the largest number of items one batch frame may carry.
// Clients split longer runs transparently.
const MaxBatch = 256

const reqHeaderSize = 1 + 16 + 4
const keyWireSize = 16

// maxBatchPayload bounds an inbound batch frame: count word plus MaxBatch
// maximal items.
func maxBatchPayload(pageSize int) int {
	return 4 + MaxBatch*(keyWireSize+4+pageSize)
}

// connBufSize sizes the per-connection buffered reader and writer; large
// enough to hold several pipelined 4 KiB-page requests per syscall.
const connBufSize = 32 * 1024

// Store is the operation surface a Server dispatches requests to: exactly
// the backend methods the wire protocol exposes. *tmem.Backend satisfies
// it directly; durable.Store wraps a backend with write-through journaling
// so every acknowledged persistent put survives a crash.
type Store interface {
	PageSize() mem.Bytes
	NewPool(vm tmem.VMID, kind tmem.PoolKind) tmem.PoolID
	DestroyPool(id tmem.PoolID) error
	Put(key tmem.Key, data []byte) tmem.Status
	Get(key tmem.Key, dst []byte) tmem.Status
	FlushPage(key tmem.Key) tmem.Status
	FlushObject(pool tmem.PoolID, object tmem.ObjectID) (mem.Pages, tmem.Status)
	PutBatch(keys []tmem.Key, datas [][]byte, sts []tmem.Status)
	GetBatch(keys []tmem.Key, dsts [][]byte, sts []tmem.Status)
}

var _ Store = (*tmem.Backend)(nil)

// Server serves the KV protocol over a listener backed by one store
// shared by all connections. Request handling is pipelined: a client may
// stream many requests without waiting for responses, and the server
// batches responses until the inbound buffer drains.
type Server struct {
	store   Store
	metrics *Metrics // nil when uninstrumented

	// connPool recycles per-connection serving state (bufio reader/writer,
	// page and frame buffers, batch scratch) across connections, so a churn
	// of short-lived clients — exactly what an open-loop load generator
	// ramping connections produces — does not re-allocate ~70 KiB of
	// arenas per accept. It is a pointer because the runtime's pool list
	// keeps every used pool reachable through one more GC: an embedded
	// pool would keep the Server, and with it the whole store, alive too.
	connPool *sync.Pool

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	draining  bool
	wg        sync.WaitGroup
}

// NewServerStore serves any Store: a bare *tmem.Backend or a wrapper of
// one (e.g. a durable write-through store).
func NewServerStore(store Store) *Server {
	if store == nil {
		panic("kvstore: nil store")
	}
	return &Server{
		store:     store,
		connPool:  new(sync.Pool),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
}

// SetMetrics attaches serving instrumentation: per-op latency histograms
// and transport counters recorded lock-free on the serve loop. Call before
// serving; a nil m disables recording (the default).
func (s *Server) SetMetrics(m *Metrics) { s.metrics = m }

// Metrics returns the attached instrumentation, or nil.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Serve accepts and serves connections until the listener closes. After a
// Shutdown-initiated stop it returns nil instead of the accept error.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return fmt.Errorf("kvstore: server is shut down")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()

	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
				s.wg.Done()
			}()
			_ = s.ServeConn(c)
		}()
	}
}

// Shutdown gracefully stops the server: it closes every listener so no new
// connection is accepted, then waits for in-flight connections served via
// Serve to drain. When ctx expires first, the remaining connections are
// closed forcibly and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// connState is the per-connection serving arena: buffered reader/writer,
// request header/payload/page buffers, and the batch scratch. A Server
// recycles these through connPool, so accepting a connection costs a pool
// get instead of fresh buffer allocations.
type connState struct {
	br       *bufio.Reader
	bw       *bufio.Writer
	hdr      [reqHeaderSize]byte
	respHdr  [5]byte
	countBuf [8]byte
	buf      []byte // single-op request payload
	page     []byte // get destination
	scr      batchScratch
}

// getConn takes a recycled connection state from the pool (rebinding its
// bufio pair to c) or builds a fresh one.
func (s *Server) getConn(c net.Conn, pageSize int) *connState {
	if v := s.connPool.Get(); v != nil {
		cs := v.(*connState)
		cs.br.Reset(c)
		cs.bw.Reset(c)
		return cs
	}
	return &connState{
		br:   bufio.NewReaderSize(c, connBufSize),
		bw:   bufio.NewWriterSize(c, connBufSize),
		buf:  make([]byte, pageSize),
		page: make([]byte, pageSize),
	}
}

// putConn returns a connection state to the pool, dropping the conn
// references so a pooled state never pins a closed connection.
func (s *Server) putConn(cs *connState) {
	cs.br.Reset(nil)
	cs.bw.Reset(nil)
	s.connPool.Put(cs)
}

// protoErr counts a connection dropped on a malformed or truncated frame
// when metrics are attached, and passes the error through.
func (s *Server) protoErr(err error) error {
	if s.metrics != nil {
		s.metrics.protoErrors.Add(1)
	}
	return err
}

// ServeConn serves one connection until EOF or protocol error. The serving
// arena (header, payload, page and batch buffers) comes from the server's
// connection pool and is reused across requests and across connections.
// Responses are written header-then-payload straight into the buffered
// writer — no intermediate response buffer is assembled, so a get never
// copies its page twice — and flushed only once the inbound buffer is
// empty, so a pipelining client pays one write syscall per batch of
// requests rather than per request.
func (s *Server) ServeConn(c net.Conn) error {
	defer c.Close()
	pageSize := int(s.store.PageSize())
	m := s.metrics
	if m != nil {
		m.connsTotal.Add(1)
		m.connsActive.Add(1)
		defer m.connsActive.Add(-1)
	}
	cs := s.getConn(c, pageSize)
	defer s.putConn(cs)
	br, bw := cs.br, cs.bw
	scr := &cs.scr
	// On an error return, responses to already-executed pipelined requests
	// may still sit in bw; deliver them before the deferred Close (defers
	// run last-in-first-out). Flush errors are moot — the conn is dying.
	defer func() { _ = bw.Flush() }()
	for {
		if _, err := io.ReadFull(br, cs.hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return s.protoErr(err)
		}
		op := cs.hdr[0]
		key, err := tmem.KeyFromWire(cs.hdr[1:17])
		if err != nil {
			return s.protoErr(err)
		}
		n := binary.BigEndian.Uint32(cs.hdr[17:21])
		isBatch := op == OpPutBatch || op == OpGetBatch
		limit := pageSize
		if isBatch {
			limit = maxBatchPayload(pageSize)
		}
		if int(n) > limit {
			return s.protoErr(fmt.Errorf("kvstore: payload %d exceeds limit %d", n, limit))
		}
		var data []byte
		if isBatch {
			if cap(scr.buf) < int(n) {
				scr.buf = make([]byte, n)
			}
			data = scr.buf[:n]
		} else {
			data = cs.buf[:n]
		}
		if _, err := io.ReadFull(br, data); err != nil {
			return s.protoErr(err)
		}

		// Latency is measured from frame-complete to response-enqueued and
		// recorded into lock-free hdr buckets, so instrumentation never
		// serializes connection handlers.
		var start time.Time
		if m != nil {
			start = time.Now()
		}
		var status tmem.Status
		var payload []byte
		switch op {
		case OpPut:
			status = s.store.Put(key, data)
		case OpGet:
			status = s.store.Get(key, cs.page)
			if status == tmem.STmem {
				payload = cs.page
			}
		case OpFlushPage:
			status = s.store.FlushPage(key)
		case OpFlushObject:
			// The pages-freed count rides the response payload so a remote
			// tier's owner can account exactly (see Client.FlushObjectCount).
			var freed mem.Pages
			freed, status = s.store.FlushObject(key.Pool, key.Object)
			if status == tmem.STmem {
				payload = binary.BigEndian.AppendUint64(cs.countBuf[:0], uint64(freed))
			}
		case OpNewPool:
			// A kind is Persistent or Ephemeral; anything else is
			// malformed, not a third mode the store would have to guess.
			if kind := key.Object; kind != tmem.ObjectID(tmem.Persistent) && kind != tmem.ObjectID(tmem.Ephemeral) {
				status = tmem.EInval
			} else {
				status = tmem.Status(s.store.NewPool(tmem.VMID(key.Pool), tmem.PoolKind(kind)))
			}
		case OpDestroyPool:
			if err := s.store.DestroyPool(key.Pool); err != nil {
				status = tmem.EInval
			} else {
				status = tmem.STmem
			}
		case OpPutBatch:
			if err := scr.parsePutBatch(data, pageSize); err != nil {
				return s.protoErr(err)
			}
			s.store.PutBatch(scr.keys, scr.datas, scr.sts)
			status = tmem.STmem
			scr.resp = scr.resp[:0]
			for _, st := range scr.sts {
				scr.resp = append(scr.resp, byte(int8(st)))
			}
			payload = scr.resp
		case OpGetBatch:
			if err := scr.parseGetBatch(data, pageSize); err != nil {
				return s.protoErr(err)
			}
			s.store.GetBatch(scr.keys, scr.dsts, scr.sts)
			// The batch response streams item by item straight into the
			// buffered writer — each hit page goes from its slab slot to
			// the socket buffer once, instead of being assembled into a
			// response arena (up to MaxBatch pages) and copied again.
			respLen := 0
			for _, st := range scr.sts {
				respLen += 5
				if st == tmem.STmem {
					respLen += pageSize
				}
			}
			cs.respHdr[0] = byte(int8(tmem.STmem))
			binary.BigEndian.PutUint32(cs.respHdr[1:], uint32(respLen))
			if _, err := bw.Write(cs.respHdr[:]); err != nil {
				return err
			}
			var item [5]byte
			for i, st := range scr.sts {
				item[0] = byte(int8(st))
				if st == tmem.STmem {
					binary.BigEndian.PutUint32(item[1:], uint32(pageSize))
				} else {
					binary.BigEndian.PutUint32(item[1:], 0)
				}
				if _, err := bw.Write(item[:]); err != nil {
					return err
				}
				if st == tmem.STmem {
					if _, err := bw.Write(scr.dsts[i]); err != nil {
						return err
					}
				}
			}
			if m != nil {
				m.observe(op, time.Since(start), reqHeaderSize+int(n), 5+respLen)
			}
			if br.Buffered() == 0 {
				if err := bw.Flush(); err != nil {
					return err
				}
			}
			continue
		default:
			return s.protoErr(fmt.Errorf("kvstore: unknown op %d", op))
		}
		cs.respHdr[0] = byte(int8(status))
		binary.BigEndian.PutUint32(cs.respHdr[1:], uint32(len(payload)))
		if _, err := bw.Write(cs.respHdr[:]); err != nil {
			return err
		}
		if len(payload) > 0 {
			if _, err := bw.Write(payload); err != nil {
				return err
			}
		}
		if m != nil {
			m.observe(op, time.Since(start), reqHeaderSize+int(n), 5+len(payload))
		}
		// Pipelining: flush only when no further request is already
		// buffered — the next ReadFull would otherwise block with
		// responses stranded in the write buffer.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
	}
}

// batchScratch is the per-connection working state of the batch frames:
// the inbound frame buffer, the decoded key/payload views into it, the
// per-item status slice, one slab backing all get destinations, and the
// response under assembly. Everything is reused across requests.
type batchScratch struct {
	buf   []byte
	keys  []tmem.Key
	datas [][]byte
	dsts  [][]byte
	sts   []tmem.Status
	slab  []byte
	resp  []byte
}

// reset sizes the per-item slices for a run of n items.
func (sc *batchScratch) reset(n int) {
	if cap(sc.keys) < n {
		sc.keys = make([]tmem.Key, n)
		sc.datas = make([][]byte, n)
		sc.dsts = make([][]byte, n)
		sc.sts = make([]tmem.Status, n)
	}
	sc.keys = sc.keys[:n]
	sc.datas = sc.datas[:n]
	sc.dsts = sc.dsts[:n]
	sc.sts = sc.sts[:n]
}

// parsePutBatch decodes a put-batch payload; datas alias the frame buffer
// (the backend copies page contents before returning).
func (sc *batchScratch) parsePutBatch(data []byte, pageSize int) error {
	if len(data) < 4 {
		return fmt.Errorf("kvstore: put-batch frame too short")
	}
	n := int(binary.BigEndian.Uint32(data[:4]))
	if n > MaxBatch {
		return fmt.Errorf("kvstore: put-batch count %d exceeds %d", n, MaxBatch)
	}
	sc.reset(n)
	off := 4
	for i := 0; i < n; i++ {
		if len(data) < off+keyWireSize+4 {
			return fmt.Errorf("kvstore: put-batch frame truncated at item %d", i)
		}
		k, err := tmem.KeyFromWire(data[off : off+keyWireSize])
		if err != nil {
			return err
		}
		off += keyWireSize
		dlen := int(binary.BigEndian.Uint32(data[off : off+4]))
		off += 4
		if dlen > pageSize {
			return fmt.Errorf("kvstore: put-batch item %d payload %d exceeds page size", i, dlen)
		}
		if len(data) < off+dlen {
			return fmt.Errorf("kvstore: put-batch frame truncated at item %d data", i)
		}
		sc.keys[i] = k
		sc.datas[i] = data[off : off+dlen]
		off += dlen
	}
	if off != len(data) {
		return fmt.Errorf("kvstore: put-batch frame has %d trailing bytes", len(data)-off)
	}
	return nil
}

// parseGetBatch decodes a get-batch payload and carves per-item
// destination buffers out of the shared slab.
func (sc *batchScratch) parseGetBatch(data []byte, pageSize int) error {
	if len(data) < 4 {
		return fmt.Errorf("kvstore: get-batch frame too short")
	}
	n := int(binary.BigEndian.Uint32(data[:4]))
	if n > MaxBatch {
		return fmt.Errorf("kvstore: get-batch count %d exceeds %d", n, MaxBatch)
	}
	if len(data) != 4+n*keyWireSize {
		return fmt.Errorf("kvstore: get-batch frame length %d, want %d", len(data), 4+n*keyWireSize)
	}
	sc.reset(n)
	if cap(sc.slab) < n*pageSize {
		sc.slab = make([]byte, n*pageSize)
	}
	for i := 0; i < n; i++ {
		k, err := tmem.KeyFromWire(data[4+i*keyWireSize : 4+(i+1)*keyWireSize])
		if err != nil {
			return err
		}
		sc.keys[i] = k
		sc.dsts[i] = sc.slab[i*pageSize : (i+1)*pageSize]
	}
	return nil
}

// Client speaks the KV protocol over an established connection. It is safe
// for concurrent use: every request/response exchange holds the client's
// lock (the protocol is strict request/response), so one wire connection
// can serve a RemoteTier attached to a backend that many connections drive.
type Client struct {
	c        net.Conn
	pageSize int

	mu   sync.Mutex
	hdr  [5]byte // response header
	bbuf []byte  // request frames and response payloads, reused
}

// NewClient wraps a connection; pageSize must match the server's backend.
func NewClient(c net.Conn, pageSize int) *Client {
	if c == nil {
		panic("kvstore: nil conn")
	}
	if pageSize <= 0 {
		panic("kvstore: non-positive page size")
	}
	return &Client{c: c, pageSize: pageSize}
}

// Deprecated: SyncClient is Client, which serializes its own exchanges.
type SyncClient = Client

// Deprecated: NewSyncClient returns cl; a Client is safe for concurrent use.
func NewSyncClient(cl *Client) *Client { return cl }

// Close closes the connection.
func (cl *Client) Close() error { return cl.c.Close() }

// do runs one single-page exchange. A response payload lands in dst on
// S_TMEM, truncated to len(dst); any other payload is read and dropped.
// It returns the status and the payload length.
func (cl *Client) do(op byte, key tmem.Key, data, dst []byte) (tmem.Status, int, error) {
	if len(data) > cl.pageSize {
		return tmem.EInval, 0, fmt.Errorf("kvstore: payload %d exceeds page size %d", len(data), cl.pageSize)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	req := append(cl.bbuf[:0], op)
	req = key.AppendWire(req)
	req = binary.BigEndian.AppendUint32(req, uint32(len(data)))
	cl.bbuf = append(req, data...)
	st, n, err := cl.roundTrip(cl.pageSize)
	if err != nil || n == 0 {
		return st, n, err
	}
	if st == tmem.STmem && len(dst) >= n {
		_, err = io.ReadFull(cl.c, dst[:n])
		return st, n, err
	}
	p, err := cl.readPayload(n)
	if st == tmem.STmem {
		copy(dst, p)
	}
	return st, n, err
}

// roundTrip sends the request frame built in bbuf and reads the response
// header, refusing a payload longer than limit; the payload itself is left
// on the wire. The caller holds mu.
func (cl *Client) roundTrip(limit int) (tmem.Status, int, error) {
	if _, err := cl.c.Write(cl.bbuf); err != nil {
		return tmem.EInval, 0, err
	}
	if _, err := io.ReadFull(cl.c, cl.hdr[:]); err != nil {
		return tmem.EInval, 0, err
	}
	n := int(binary.BigEndian.Uint32(cl.hdr[1:5]))
	if n > limit {
		return tmem.EInval, 0, fmt.Errorf("kvstore: response payload %d exceeds %d", n, limit)
	}
	return tmem.Status(int8(cl.hdr[0])), n, nil
}

// readPayload reads an n-byte response payload into bbuf. The caller holds
// mu and must be done with the bytes before releasing it.
func (cl *Client) readPayload(n int) ([]byte, error) {
	if cap(cl.bbuf) < n {
		cl.bbuf = make([]byte, n)
	}
	p := cl.bbuf[:n]
	_, err := io.ReadFull(cl.c, p)
	return p, err
}

// NewPool creates a pool for vm of the given kind and returns its id.
func (cl *Client) NewPool(vm tmem.VMID, kind tmem.PoolKind) (tmem.PoolID, error) {
	st, _, err := cl.do(OpNewPool, tmem.Key{Pool: tmem.PoolID(vm), Object: tmem.ObjectID(kind)}, nil, nil)
	if err != nil {
		return tmem.InvalidPool, err
	}
	if st < 0 {
		return tmem.InvalidPool, fmt.Errorf("kvstore: new-pool failed: %v", st)
	}
	return tmem.PoolID(st), nil
}

// Put stores a page (copied; nil means a zero page).
func (cl *Client) Put(key tmem.Key, data []byte) (tmem.Status, error) {
	st, _, err := cl.do(OpPut, key, data, nil)
	return st, err
}

// Get retrieves a page; on S_TMEM the returned slice holds the page.
func (cl *Client) Get(key tmem.Key) (tmem.Status, []byte, error) {
	page := make([]byte, cl.pageSize)
	st, n, err := cl.do(OpGet, key, nil, page)
	if err != nil || st != tmem.STmem {
		return st, nil, err
	}
	return st, page[:n], nil
}

// GetInto retrieves a page straight into dst (nil when only presence
// matters): the response is read into the caller's buffer, with no page
// allocated or copied on the way.
func (cl *Client) GetInto(key tmem.Key, dst []byte) (tmem.Status, error) {
	st, _, err := cl.do(OpGet, key, nil, dst)
	return st, err
}

// FlushPage invalidates one page.
func (cl *Client) FlushPage(key tmem.Key) (tmem.Status, error) {
	st, _, err := cl.do(OpFlushPage, key, nil, nil)
	return st, err
}

// FlushObjectCount invalidates every page of an object and returns the
// pages-freed count the server reports in the response payload.
func (cl *Client) FlushObjectCount(pool tmem.PoolID, object tmem.ObjectID) (mem.Pages, tmem.Status, error) {
	var count [8]byte
	st, n, err := cl.do(OpFlushObject, tmem.Key{Pool: pool, Object: object}, nil, count[:])
	if err != nil || st != tmem.STmem || n != len(count) {
		return 0, st, err
	}
	return mem.Pages(binary.BigEndian.Uint64(count[:])), st, nil
}

// DestroyPool flushes and removes a pool.
func (cl *Client) DestroyPool(pool tmem.PoolID) (tmem.Status, error) {
	st, _, err := cl.do(OpDestroyPool, tmem.Key{Pool: pool}, nil, nil)
	return st, err
}

// PutBatch stores a run of pages in one wire round trip per MaxBatch
// chunk: one request frame carries every key and payload, one response
// frame carries every status. datas may be nil (all zero pages) or hold
// one payload per key; sts receives one status per key.
func (cl *Client) PutBatch(keys []tmem.Key, datas [][]byte, sts []tmem.Status) error {
	if len(sts) != len(keys) || (datas != nil && len(datas) != len(keys)) {
		return fmt.Errorf("kvstore: batch slice length mismatch")
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for start := 0; start < len(keys); start += MaxBatch {
		end := min(start+MaxBatch, len(keys))
		var chunk [][]byte
		if datas != nil {
			chunk = datas[start:end]
		}
		if err := cl.putBatchChunk(keys[start:end], chunk, sts[start:end]); err != nil {
			return err
		}
	}
	return nil
}

func (cl *Client) putBatchChunk(keys []tmem.Key, datas [][]byte, sts []tmem.Status) error {
	req := append(cl.bbuf[:0], OpPutBatch)
	req = append(req, make([]byte, keyWireSize)...) // header key unused
	lenAt := len(req)
	req = append(req, 0, 0, 0, 0)
	req = binary.BigEndian.AppendUint32(req, uint32(len(keys)))
	for i, k := range keys {
		var d []byte
		if datas != nil {
			d = datas[i]
		}
		if len(d) > cl.pageSize {
			return fmt.Errorf("kvstore: batch payload %d exceeds page size %d", len(d), cl.pageSize)
		}
		req = k.AppendWire(req)
		req = binary.BigEndian.AppendUint32(req, uint32(len(d)))
		req = append(req, d...)
	}
	binary.BigEndian.PutUint32(req[lenAt:], uint32(len(req)-reqHeaderSize))
	cl.bbuf = req
	st, n, err := cl.roundTrip(len(keys))
	if err != nil {
		return err
	}
	if st != tmem.STmem {
		return fmt.Errorf("kvstore: put-batch rejected: %v", st)
	}
	if n != len(keys) {
		return fmt.Errorf("kvstore: put-batch response carries %d statuses, want %d", n, len(keys))
	}
	resp, err := cl.readPayload(n)
	if err != nil {
		return err
	}
	for i, b := range resp {
		sts[i] = tmem.Status(int8(b))
	}
	return nil
}

// GetBatch retrieves a run of pages in one wire round trip per MaxBatch
// chunk. dsts may be nil (presence only) or hold per-key buffers; nil
// entries skip the copy. sts receives one status per key.
func (cl *Client) GetBatch(keys []tmem.Key, dsts [][]byte, sts []tmem.Status) error {
	if len(sts) != len(keys) || (dsts != nil && len(dsts) != len(keys)) {
		return fmt.Errorf("kvstore: batch slice length mismatch")
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for start := 0; start < len(keys); start += MaxBatch {
		end := min(start+MaxBatch, len(keys))
		var chunk [][]byte
		if dsts != nil {
			chunk = dsts[start:end]
		}
		if err := cl.getBatchChunk(keys[start:end], chunk, sts[start:end]); err != nil {
			return err
		}
	}
	return nil
}

func (cl *Client) getBatchChunk(keys []tmem.Key, dsts [][]byte, sts []tmem.Status) error {
	req := append(cl.bbuf[:0], OpGetBatch)
	req = append(req, make([]byte, keyWireSize)...)
	req = binary.BigEndian.AppendUint32(req, uint32(4+len(keys)*keyWireSize))
	req = binary.BigEndian.AppendUint32(req, uint32(len(keys)))
	for _, k := range keys {
		req = k.AppendWire(req)
	}
	cl.bbuf = req
	st, n, err := cl.roundTrip(len(keys) * (5 + cl.pageSize))
	if err != nil {
		return err
	}
	if st != tmem.STmem {
		return fmt.Errorf("kvstore: get-batch rejected: %v", st)
	}
	resp, err := cl.readPayload(n)
	if err != nil {
		return err
	}
	off := 0
	for i := range keys {
		if len(resp) < off+5 {
			return fmt.Errorf("kvstore: get-batch response truncated at item %d", i)
		}
		sts[i] = tmem.Status(int8(resp[off]))
		dlen := int(binary.BigEndian.Uint32(resp[off+1 : off+5]))
		off += 5
		if dlen > cl.pageSize || len(resp) < off+dlen {
			return fmt.Errorf("kvstore: get-batch response malformed at item %d", i)
		}
		if sts[i] == tmem.STmem && dsts != nil && dsts[i] != nil {
			copy(dsts[i], resp[off:off+dlen])
		}
		off += dlen
	}
	return nil
}

// Client implements tmem.PageService: a RemoteTier pointed at a Client
// ships its overflow pages to a smartmem-kvd daemon over the wire —
// RAMster-style remote tmem between real processes.
var _ tmem.PageService = (*Client)(nil)
