package main

import (
	"time"
)

// probeOps is the length of the depth-1 probe whose requests are recorded
// as spans.
const probeOps = 2000

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func usPer(ns, n int64) float64 { return ratio(float64(ns)/1e3, float64(n)) }

// serveLayers runs the traced run's extra legs and reports every serve-side
// per-layer metric. It is called right after Phase B, so the timers hold
// exactly the two measured phases.
func serveLayers(res *result, run *serveRun, pr *probes, tr *Tracer, satOn float64, seed uint64, spanB time.Duration, scratch string) error {
	st := run.stack
	spec := run.spec
	now, base := run.snapshot(), run.base
	t := now.t
	frames := float64(t.frames - base.t.frames)
	putPages, rejects := t.putPages-base.t.putPages, t.rejects-base.t.rejects

	storeCalls, storePages, storeNs := pr.sum(storeBoundaries("store")...)
	_, compPutPages, compPutNs := pr.sum("compressed.put")
	_, compGetPages, compGetNs := pr.sum("compressed.get")
	_, _, compFlushNs := pr.sum("compressed.flush")
	_, remPutPages, remPutNs := pr.sum("remote.put")
	_, remGetPages, remGetNs := pr.sum("remote.get")
	_, _, remFlushNs := pr.sum("remote.flush")
	wireCalls, _, _ := pr.sum("remote.wire")
	_, _, writeNs := pr.sum("blob.write")
	syncCalls, _, syncNs := pr.sum("blob.sync")
	_, _, bgNs := pr.sum("blob.put", "blob.list", "blob.delete")
	tierNs := compPutNs + compGetNs + compFlushNs + remPutNs + remGetNs + remFlushNs

	res.layer("tmem.store_us_per_page", usPer(storeNs-tierNs-writeNs, storePages))
	res.layer("tmem.pages_per_call", ratio(float64(storePages), float64(storeCalls)))
	res.layer("tmem.put_accept_ratio", 1-ratio(float64(rejects), float64(putPages)))
	res.layer("tmem.get_hit_ratio", ratio(float64(t.getHits-base.t.getHits), float64(t.getPages-base.t.getPages)))
	counts, _ := st.backend.Counts(1)
	res.layer("tmem.eph_evictions", float64(counts.EphEvicted))

	res.layer("kvstore.bytes_in_per_op", ratio(float64(now.in-base.in), frames))
	res.layer("kvstore.bytes_out_per_op", ratio(float64(now.out-base.out), frames))
	res.layer("kvstore.proto_errors", float64(st.metrics.ProtoErrors()))

	if st.comp != nil {
		cs, cs0 := now.comp, base.comp
		res.layer("tmem.compressed.put_us_per_page", usPer(compPutNs, compPutPages))
		res.layer("tmem.compressed.get_us_per_page", usPer(compGetNs, compGetPages))
		res.layer("tmem.compressed.codec_us_per_page",
			usPer(int64(cs.CompressNs+cs.DecompressNs-cs0.CompressNs-cs0.DecompressNs), int64(cs.Puts+cs.GetsHit-cs0.Puts-cs0.GetsHit)))
		res.layer("tmem.compressed.puts", float64(cs.Puts-cs0.Puts))
		res.layer("tmem.compressed.ratio", cs.Ratio()) // of what the tier holds now
		res.layer("tmem.compressed.dedup_hit_ratio", ratio(float64(cs.DedupHits-cs0.DedupHits), float64(cs.PutsOK-cs0.PutsOK)))
		res.layer("tmem.compressed.rejected_full", float64(cs.RejectedFull-cs0.RejectedFull))
	}
	if st.remote != nil {
		rs, rs0 := now.remote, base.remote
		res.layer("tmem.remote.put_us_per_page", usPer(remPutNs, remPutPages))
		res.layer("tmem.remote.get_us_per_page", usPer(remGetNs, remGetPages))
		res.layer("tmem.remote.round_trips_per_page", ratio(float64(wireCalls), float64(remPutPages+remGetPages)))
		res.layer("tmem.remote.puts", float64(rs.Puts-rs0.Puts))
		res.layer("tmem.remote.get_hit_ratio", ratio(float64(rs.GetsHit-rs0.GetsHit), float64(rs.Gets-rs0.Gets)))
		res.layer("tmem.remote.errors", float64(rs.Errors-rs0.Errors))
	}
	if st.dlog != nil {
		ls, ls0 := now.log, base.log
		appends, walBytes := ls.Appends-ls0.Appends, ls.AppendedBytes-ls0.AppendedBytes
		// The outer span: journal and the wrapped backend with its tiers.
		res.layer("durable.store_us_per_page", usPer(storeNs, storePages))
		res.layer("durable.append_us_per_record", usPer(writeNs, int64(appends)))
		res.layer("durable.fsyncs", float64(syncCalls))
		res.layer("durable.fsync_ms_total", float64(syncNs)/1e6)
		res.layer("durable.wal_bytes", float64(walBytes))
		res.layer("durable.wal_bytes_per_user_byte", ratio(float64(walBytes), float64((putPages-rejects)*pageSize)))
		res.layer("durable.compactions", float64(ls.Compactions-ls0.Compactions))
		res.layer("durable.compact_ms_total", float64(bgNs)/1e6)
		res.layer("durable.snapshot_bytes", float64(st.blob.bytesPut.Load()))
		res.layer("durable.errors", float64(ls.Errors))
		res.note("journal: %d appends, %.0f MiB WAL, %d compactions, %d errors", appends, float64(walBytes)/(1<<20), ls.Compactions-ls0.Compactions, ls.Errors)
	}

	// Overhead leg: Phase B again with every decorator switched to
	// pass-through. The difference to the timed Phase B is what timing cost.
	pr.off.Store(true)
	satOff := runClosedLoop(run.conns, spec.mix, seed+1, spec.depth, spanB, run.bodies)
	pr.off.Store(false)
	res.layer("trace.overhead_pct", 100*ratio(satOff-satOn, satOff))

	// Depth-1 probe: one connection, one request at a time, so every call it
	// causes nests under it and the span tree has exact parents.
	_, _, storeNs0 := pr.sum(storeBoundaries("store")...)
	src := newOpSource(spec.mix, seed+2, 0)
	c := run.conns[0]
	var rtt time.Duration
	tr.Record(true)
	for i := 0; i < probeOps; i++ {
		o := src.next()
		if o.kind == opPut {
			o.seq = c.nextSeq
			c.nextSeq++
		}
		tr.NextRequest()
		idx := tr.Begin("request", int(o.n))
		start := time.Now()
		err := c.roundTrip(o, run.bodies)
		rtt += time.Since(start)
		tr.End(idx)
		if err != nil {
			c.fail(err, probeOps-i)
			break
		}
	}
	tr.Record(false)
	_, _, storeNs1 := pr.sum(storeBoundaries("store")...)
	res.layer("kvstore.wire_us_per_op", usPer(int64(rtt)-(storeNs1-storeNs0), probeOps))

	// Null-store leg: the same closed loop against a store that does
	// nothing — the wire layer's ceiling.
	null := &stack{}
	if err := null.serve(nullStore{}, nil, ""); err != nil {
		return err
	}
	defer null.close()
	var nullConns []*clientConn
	for i := 0; i < spec.mix.conns; i++ {
		nc, err := dialConn(null.addr, i, spec.mix, 1)
		if err != nil {
			return err
		}
		nc.nocheck = true
		defer nc.nc.Close()
		nullConns = append(nullConns, nc)
	}
	res.layer("kvstore.nullstore_pages_per_s", runClosedLoop(nullConns, spec.mix, seed+3, spec.depth, spanB/2, run.bodies))
	return nil
}
