// Command smartmem-kvd exposes the real tmem key–value backend over TCP
// (see internal/kvstore for the protocol), demonstrating that the store is
// a genuine page-copy key–value service and not just a simulation
// artefact.
//
// The served store is sharded (tmem.NewBackendOpts): keys hash across
// -shards lock stripes so concurrent connections scale with cores instead
// of serializing on one mutex. Requests may be pipelined, and the batch
// frames (OpPutBatch/OpGetBatch) move whole runs of pages per round trip
// — the server executes them through the backend's stripe-grouped batch
// path, one lock acquisition per stripe per run. SIGINT/SIGTERM trigger a
// graceful stop: accepting ends, in-flight connections drain (bounded by
// a timeout), and the final store statistics are printed.
//
// A daemon may additionally chain a RAMster-style remote tmem tier with
// -remote: overflow pages its local store rejects (out of frames) are
// shipped to a peer smartmem-kvd over the same wire protocol, and only
// puts neither node can hold fail back to the client. Keep -remote chains
// acyclic (A→B, or A→B→C; never back to A): overflow requests are served
// through the peer's full tier stack, so a cycle would bounce pages.
//
// With -compress the daemon additionally attaches a compressed in-RAM tier
// ahead of any remote tier: overflow pages compress (LZ) and dedup into a
// slab arena of the given byte budget before the daemon considers shipping
// them to a peer or failing the put. -debug serves live counters in the
// Prometheus text format on /metrics — wire latency, store and tier
// operations, compression (stored vs raw bytes, dedup hits, codec time) and
// the journal with its last recovery — so the achieved ratio and the WAL's
// state are observable on a running daemon.
//
// With -durable the daemon journals every acknowledged persistent-pool
// mutation to a write-ahead log under the given directory (plus periodic
// slab snapshots; see internal/durable). On start it recovers the journaled
// state — pools under their original wire-visible ids, pages through the
// full tier stack — so a SIGKILL loses nothing acknowledged over the wire.
// A graceful SIGINT/SIGTERM additionally compacts and writes a
// clean-shutdown marker so the next start skips the WAL replay. -fsync
// picks the commit policy: always (fsync per commit, group-committed),
// interval (background fsync, default), off (benchmarking only). Once a
// journal write or fsync fails, persistent puts and new persistent pools
// are refused until restart, and the shutdown line prints the failure.
//
// Modes:
//
//	smartmem-kvd -listen :7077 -pages 262144 -shards 8   # KV daemon
//	smartmem-kvd -listen :7077 -remote far:7077          # + remote tier
//	smartmem-kvd -listen :7077 -compress 256             # + 256 MiB compressed tier
//	smartmem-kvd -listen :7077 -durable /var/lib/smartmem  # + crash durability
//	smartmem-kvd -listen :7077 -debug :7079              # + Prometheus /metrics
//	smartmem-kvd -connect :7077 -demo                    # KV client demo
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"smartmem/internal/durable"
	"smartmem/internal/kvstore"
	"smartmem/internal/mem"
	"smartmem/internal/tmem"
)

// The durable write-through store must keep satisfying the wire server's
// store surface.
var _ kvstore.Store = (*durable.Store)(nil)

const pageSize = 4096

// drainTimeout bounds how long a graceful shutdown waits for in-flight
// connections before closing them forcibly.
const drainTimeout = 5 * time.Second

func main() {
	var (
		listen   = flag.String("listen", "", "serve the tmem KV store on this address")
		connect  = flag.String("connect", "", "connect to a KV daemon and run the demo")
		pages    = flag.Int64("pages", 65536, "tmem capacity in pages for -listen mode")
		shards   = flag.Int("shards", 0, "store lock stripes for -listen mode; 0 means GOMAXPROCS")
		remote   = flag.String("remote", "", "chain a remote tmem tier: ship overflow pages to the smartmem-kvd at this address (keep chains acyclic)")
		remoteVM = flag.Int("remote-owner", 1000, "VM id this node's overflow pages are accounted under on the -remote peer")
		compress = flag.Int64("compress", 0, "attach a compressed in-RAM tier with this slab arena budget in MiB (0 disables)")
		durDir   = flag.String("durable", "", "journal persistent pools to a WAL + snapshots under this directory and recover them on start")
		fsyncStr = flag.String("fsync", "interval", "durable commit policy: always, interval or off")
		debug    = flag.String("debug", "", "serve Prometheus metrics on http://<addr>/metrics in -listen mode")
		demo     = flag.Bool("demo", false, "run put/get/flush round trips in -connect mode")
	)
	flag.Parse()

	switch {
	case *listen != "":
		backend := newBackend(mem.Pages(*pages), *shards)
		var ctier *tmem.CompressedTier
		if *compress > 0 {
			ctier = tmem.NewCompressedTier(tmem.CompressedTierConfig{
				PageSize:      pageSize,
				CapacityBytes: mem.Bytes(*compress) * mem.MiB,
			})
			// Attached before any remote tier: demotions compress locally
			// before the daemon considers shipping them to a peer.
			backend.AttachTier(ctier)
			fmt.Printf("smartmem-kvd: compressed tier: %d MiB arena, codec lz\n", *compress)
		}
		if *remote != "" {
			// A bounded retry covers the window where the peer daemon is
			// itself restarting (e.g. recovering its durable state).
			conn, err := kvstore.DialRetry("tcp", *remote, 10, 200*time.Millisecond)
			fatalIf(err)
			// All connection handlers funnel overflow into this one wire
			// client, which serializes its request/response exchanges.
			svc := kvstore.NewClient(conn, pageSize)
			backend.AttachTier(tmem.NewRemoteTier("kvd:"+*remote, svc, tmem.VMID(*remoteVM)))
			fmt.Printf("smartmem-kvd: remote tmem tier -> %s (owner vm %d)\n", *remote, *remoteVM)
		}
		node := kvNode{store: backend, backend: backend}
		if *durDir != "" {
			// Recovery runs after the tier stack is assembled so journaled
			// pages land back through the same demotion path they used live.
			fp, err := durable.ParseFsync(*fsyncStr)
			fatalIf(err)
			node, err = openDurable(backend, *durDir, fp, os.Stdout)
			fatalIf(err)
		}
		l, err := net.Listen("tcp", *listen)
		fatalIf(err)
		if *debug != "" {
			dl, err := net.Listen("tcp", *debug)
			fatalIf(err)
			node.metrics = kvstore.NewMetrics()
			mux := http.NewServeMux()
			mux.Handle("/metrics", promHandler(node, node.metrics))
			go func() { fatalIf(http.Serve(dl, mux)) }()
			fmt.Printf("smartmem-kvd: metrics on http://%s/metrics\n", dl.Addr())
		}
		fmt.Printf("smartmem-kvd: serving %d tmem pages (%d shards) on %s\n",
			*pages, backend.Shards(), l.Addr())
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		fatalIf(serveKV(l, node, sigs, drainTimeout, os.Stdout))

	case *connect != "":
		runClient(*connect, *demo)

	default:
		fmt.Fprintln(os.Stderr, "smartmem-kvd: one of -listen or -connect is required")
		os.Exit(2)
	}
}

// newBackend builds the daemon's sharded data store. shards <= 0 sizes the
// stripe count to GOMAXPROCS (tmem rounds it up to a power of two).
func newBackend(pages mem.Pages, shards int) *tmem.Backend {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return tmem.NewBackendOpts(pages, tmem.Options{
		Shards:   shards,
		NewStore: func() tmem.PageStore { return tmem.NewDataStore(pageSize) },
	})
}

// kvNode bundles what a serving daemon is made of: the store the wire
// protocol executes against (the bare backend, or the durable write-through
// wrapper around it) plus the durable pieces when -durable is on.
type kvNode struct {
	store   kvstore.Store
	backend *tmem.Backend
	dlog    *durable.Log     // nil without -durable
	dstore  *durable.Store   // nil without -durable
	metrics *kvstore.Metrics // nil without -debug
}

// openDurable opens (and recovers) the journal under dir and wraps backend
// in the write-through store. The recovery summary is printed to out.
func openDurable(backend *tmem.Backend, dir string, fp durable.FsyncPolicy, out io.Writer) (kvNode, error) {
	blob, err := durable.NewDirStore(dir)
	if err != nil {
		return kvNode{}, err
	}
	dlog, err := durable.Open(durable.Options{
		Blob:     blob,
		PageSize: pageSize,
		Fsync:    fp,
	})
	if err != nil {
		return kvNode{}, err
	}
	dstore := durable.NewStore(backend, dlog)
	rs, err := dstore.Recover()
	if err != nil {
		dlog.Close()
		return kvNode{}, err
	}
	ri := dlog.Recovery()
	boot := "replayed WAL"
	switch {
	case ri.CleanShutdown:
		boot = "clean shutdown marker: skipped WAL replay"
	case ri.SnapshotLoaded:
		boot = fmt.Sprintf("snapshot %d (%d pages) + WAL tail", ri.SnapshotSeq, ri.SnapshotPages)
	}
	fmt.Fprintf(out, "smartmem-kvd: durable store %s (fsync=%s): %s; %d segments, %d records\n",
		dir, fp, boot, ri.WALSegments, ri.WALRecords)
	if ri.TornTail || ri.CorruptRecords > 0 {
		fmt.Fprintf(out, "smartmem-kvd: durable recovery repaired the log (torn tail: %v, corrupt records: %d)\n",
			ri.TornTail, ri.CorruptRecords)
	}
	fmt.Fprintf(out, "smartmem-kvd: recovered %d pools, %d pages (%d beyond capacity, read back from the journal)\n",
		rs.Pools, rs.Pages, rs.Dropped)
	return kvNode{store: dstore, backend: backend, dlog: dlog, dstore: dstore}, nil
}

// serveKV serves the KV protocol on l until a shutdown signal arrives,
// then drains connections (forcing stragglers closed after drain) and
// prints the final store statistics. With a durable journal attached the
// graceful path also compacts and writes the clean-shutdown marker, so the
// next start skips the WAL replay.
func serveKV(l net.Listener, node kvNode, sigs <-chan os.Signal, drain time.Duration, out io.Writer) error {
	srv := kvstore.NewServerStore(node.store)
	if node.metrics != nil {
		srv.SetMetrics(node.metrics)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case sig := <-sigs:
		fmt.Fprintf(out, "smartmem-kvd: %v: draining connections\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(out, "smartmem-kvd: forced close after drain timeout: %v\n", err)
		}
		if err := <-errc; err != nil {
			return err
		}
		printFinalStats(out, node.backend)
		if node.dlog != nil {
			printDurableStats(out, node)
			if err := node.dlog.CloseClean(); err != nil {
				fmt.Fprintf(out, "smartmem-kvd: durable clean shutdown failed (next start replays the WAL): %v\n", err)
			} else {
				fmt.Fprintln(out, "smartmem-kvd: durable state compacted, clean shutdown marker written")
			}
		}
		return nil
	}
}

// printDurableStats reports the journal's end state on shutdown.
func printDurableStats(w io.Writer, node kvNode) {
	ls := node.dlog.Stats()
	journal := "journal healthy"
	if err := node.dlog.Err(); err != nil {
		journal = err.Error()
	}
	fmt.Fprintf(w, "smartmem-kvd:   durable: %d pages (%v) in %d pools; %d appends (%v), %d fsyncs, %d compactions; %s\n",
		ls.PagesLive, mem.Bytes(ls.BytesLive), ls.Pools,
		ls.Appends, mem.Bytes(ls.AppendedBytes), ls.Fsyncs, ls.Compactions, journal)
	if n := node.dstore.RecoveryServed(); n > 0 {
		fmt.Fprintf(w, "smartmem-kvd:   durable: %d gets read back from the journal\n", n)
	}
}

// printFinalStats reports the store's end state: capacity in use, host
// footprint, and cumulative per-VM operation counts.
func printFinalStats(w io.Writer, b *tmem.Backend) {
	used := b.TotalPages() - b.FreePages()
	fmt.Fprintf(w, "smartmem-kvd: final store state: %d/%d pages used, footprint %v\n",
		used, b.TotalPages(), mem.Bytes(b.Footprint()))
	for _, vm := range b.VMs() {
		c, ok := b.Counts(vm)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "smartmem-kvd:   vm %d: puts %d/%d gets %d/%d flushes %d evicted %d\n",
			vm, c.PutsSucc, c.PutsTotal, c.GetsHit, c.GetsTotal, c.Flushes, c.EphEvicted)
	}
	for _, t := range b.Tiers() {
		s := t.Stats()
		fmt.Fprintf(w, "smartmem-kvd:   tier %s: puts %d/%d gets %d/%d flushes %d errors %d\n",
			t.Name(), s.PutsOK, s.Puts, s.GetsHit, s.Gets, s.PageFlushes+s.ObjectFlushes, s.Errors)
		if ct, ok := t.(*tmem.CompressedTier); ok {
			cs := ct.CompressedStats()
			fmt.Fprintf(w, "smartmem-kvd:   tier %s: %d pages in %d blobs, %v raw -> %v stored (%.2fx), dedup hits %d, decode errors %d\n",
				t.Name(), cs.PagesStored, cs.UniqueBlobs, cs.RawBytes, cs.StoredBytes,
				cs.Ratio(), cs.DedupHits, cs.DecodeErrors)
		}
	}
}

func runClient(addr string, demo bool) {
	conn, err := net.Dial("tcp", addr)
	fatalIf(err)
	cl := kvstore.NewClient(conn, pageSize)
	defer cl.Close()

	pool, err := cl.NewPool(1, tmem.Persistent)
	fatalIf(err)
	fmt.Printf("created pool %d\n", pool)
	if !demo {
		return
	}

	key := tmem.Key{Pool: pool, Object: 42, Index: 7}
	page := make([]byte, pageSize)
	for i := range page {
		page[i] = byte(i)
	}
	st, err := cl.Put(key, page)
	fatalIf(err)
	fmt.Printf("put %v -> %v\n", key, st)

	st, got, err := cl.Get(key)
	fatalIf(err)
	ok := st == tmem.STmem && bytes.Equal(got, page)
	fmt.Printf("get %v -> %v (contents valid: %v)\n", key, st, ok)

	st, err = cl.FlushPage(key)
	fatalIf(err)
	fmt.Printf("flush %v -> %v\n", key, st)

	st, _, err = cl.Get(key)
	fatalIf(err)
	fmt.Printf("get after flush -> %v (expected E_TMEM)\n", st)
	if !ok || st != tmem.ETmem {
		os.Exit(1)
	}

	// Batch frames: a run of pages in one round trip each way.
	const run = 16
	keys := make([]tmem.Key, run)
	datas := make([][]byte, run)
	sts := make([]tmem.Status, run)
	for i := range keys {
		keys[i] = tmem.Key{Pool: pool, Object: 43, Index: tmem.PageIndex(i)}
		datas[i] = page
	}
	fatalIf(cl.PutBatch(keys, datas, sts))
	landed := 0
	for _, st := range sts {
		if st == tmem.STmem {
			landed++
		}
	}
	fmt.Printf("put-batch %d pages -> %d stored (1 round trip)\n", run, landed)
	fatalIf(cl.GetBatch(keys, nil, sts))
	hits := 0
	for _, st := range sts {
		if st == tmem.STmem {
			hits++
		}
	}
	fmt.Printf("get-batch %d pages -> %d hits (1 round trip)\n", run, hits)
	if landed != run || hits != run {
		os.Exit(1)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "smartmem-kvd:", err)
		os.Exit(1)
	}
}
