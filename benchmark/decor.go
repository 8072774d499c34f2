package main

import (
	"sync/atomic"

	"smartmem/internal/core"
	"smartmem/internal/durable"
	"smartmem/internal/kvstore"
	"smartmem/internal/mem"
	"smartmem/internal/policy"
	"smartmem/internal/tmem"
)

// Timing decorators around the program's public seams. A traced run wraps
// every seam it assembles the stack from; an untraced run wraps none, so
// the end-to-end metrics never pay for them.

// probes is the set of boundary timers of one traced run.
type probes struct {
	tr  *Tracer
	off atomic.Bool // true = timing off (the overhead leg)
	// by holds one timer per boundary name, created up front so the
	// decorators never write the map concurrently.
	by map[string]*layerTimer
}

func newProbes(tr *Tracer, names ...string) *probes {
	p := &probes{tr: tr, by: make(map[string]*layerTimer)}
	for _, n := range names {
		p.by[n] = new(layerTimer)
	}
	return p
}

func (p *probes) probe(name string) *probe {
	return &probe{tr: p.tr, off: &p.off, name: name, timer: p.by[name]}
}

// timer returns a boundary's timer (a zero timer for an unknown name, so
// metric code need not special-case layers a workload does not assemble).
func (p *probes) timer(name string) *layerTimer {
	if t := p.by[name]; t != nil {
		return t
	}
	return new(layerTimer)
}

// sum adds up the named boundaries' timers.
func (p *probes) sum(names ...string) (calls, pages, ns int64) {
	for _, n := range names {
		t := p.timer(n)
		calls += t.calls.Load()
		pages += t.pages.Load()
		ns += t.ns.Load()
	}
	return
}

// reset zeroes every timer (after set-up, before the measured phases).
func (p *probes) reset() {
	for _, t := range p.by {
		t.calls.Store(0)
		t.pages.Store(0)
		t.ns.Store(0)
	}
}

// --- kvstore.Store ---

type storeDecor struct {
	kvstore.Store
	put, get, flush, batchPut, batchGet *probe
}

func decorateStore(s kvstore.Store, p *probes, prefix string) kvstore.Store {
	return &storeDecor{
		Store:    s,
		put:      p.probe(prefix + ".put"),
		get:      p.probe(prefix + ".get"),
		flush:    p.probe(prefix + ".flush"),
		batchPut: p.probe(prefix + ".put_batch"),
		batchGet: p.probe(prefix + ".get_batch"),
	}
}

// storeBoundaries names the timers decorateStore uses.
func storeBoundaries(prefix string) []string {
	return []string{prefix + ".put", prefix + ".get", prefix + ".flush", prefix + ".put_batch", prefix + ".get_batch"}
}

func (d *storeDecor) Put(key tmem.Key, data []byte) tmem.Status {
	c := d.put.enter(1)
	defer c.done()
	return d.Store.Put(key, data)
}

func (d *storeDecor) Get(key tmem.Key, dst []byte) tmem.Status {
	c := d.get.enter(1)
	defer c.done()
	return d.Store.Get(key, dst)
}

func (d *storeDecor) FlushPage(key tmem.Key) tmem.Status {
	c := d.flush.enter(1)
	defer c.done()
	return d.Store.FlushPage(key)
}

func (d *storeDecor) PutBatch(keys []tmem.Key, datas [][]byte, sts []tmem.Status) {
	c := d.batchPut.enter(len(keys))
	defer c.done()
	d.Store.PutBatch(keys, datas, sts)
}

func (d *storeDecor) GetBatch(keys []tmem.Key, dsts [][]byte, sts []tmem.Status) {
	c := d.batchGet.enter(len(keys))
	defer c.done()
	d.Store.GetBatch(keys, dsts, sts)
}

// --- tmem.Tier / BatchTier ---

// tierDecor wraps a tier that also implements BatchTier (both stock RAM
// tiers do), so the backend keeps taking the batch path through it.
type tierDecor struct {
	tmem.BatchTier
	put, get, flush *probe
}

func decorateTier(t tmem.BatchTier, p *probes, prefix string) tmem.BatchTier {
	return &tierDecor{
		BatchTier: t,
		put:       p.probe(prefix + ".put"),
		get:       p.probe(prefix + ".get"),
		flush:     p.probe(prefix + ".flush"),
	}
}

func tierBoundaries(prefix string) []string {
	return []string{prefix + ".put", prefix + ".get", prefix + ".flush"}
}

func (d *tierDecor) Put(key tmem.Key, kind tmem.PoolKind, data []byte) tmem.Status {
	c := d.put.enter(1)
	defer c.done()
	return d.BatchTier.Put(key, kind, data)
}

func (d *tierDecor) Get(key tmem.Key, dst []byte) tmem.Status {
	c := d.get.enter(1)
	defer c.done()
	return d.BatchTier.Get(key, dst)
}

func (d *tierDecor) FlushPage(key tmem.Key) tmem.Status {
	c := d.flush.enter(1)
	defer c.done()
	return d.BatchTier.FlushPage(key)
}

func (d *tierDecor) PutBatch(keys []tmem.Key, kinds []tmem.PoolKind, datas [][]byte, sts []tmem.Status) {
	c := d.put.enter(len(keys))
	defer c.done()
	d.BatchTier.PutBatch(keys, kinds, datas, sts)
}

func (d *tierDecor) GetBatch(keys []tmem.Key, dsts [][]byte, sts []tmem.Status) {
	c := d.get.enter(len(keys))
	defer c.done()
	d.BatchTier.GetBatch(keys, dsts, sts)
}

// --- tmem.PageService ---

// wireService is the surface of kvstore.SyncClient a RemoteTier uses,
// optional refinements included, so decorating keeps the batch frames and
// the exact flush counts.
type wireService interface {
	tmem.PageService
	tmem.BatchPageService
	FlushObjectCount(pool tmem.PoolID, object tmem.ObjectID) (mem.Pages, tmem.Status, error)
}

// serviceDecor counts round trips: one per call, whatever its size.
type serviceDecor struct {
	wireService
	rt *probe
}

func decorateService(s wireService, p *probes, name string) wireService {
	return &serviceDecor{wireService: s, rt: p.probe(name)}
}

func (d *serviceDecor) Put(key tmem.Key, data []byte) (tmem.Status, error) {
	c := d.rt.enter(1)
	defer c.done()
	return d.wireService.Put(key, data)
}

func (d *serviceDecor) Get(key tmem.Key) (tmem.Status, []byte, error) {
	c := d.rt.enter(1)
	defer c.done()
	return d.wireService.Get(key)
}

func (d *serviceDecor) FlushPage(key tmem.Key) (tmem.Status, error) {
	c := d.rt.enter(1)
	defer c.done()
	return d.wireService.FlushPage(key)
}

func (d *serviceDecor) PutBatch(keys []tmem.Key, datas [][]byte, sts []tmem.Status) error {
	c := d.rt.enter(len(keys))
	defer c.done()
	return d.wireService.PutBatch(keys, datas, sts)
}

func (d *serviceDecor) GetBatch(keys []tmem.Key, dsts [][]byte, sts []tmem.Status) error {
	c := d.rt.enter(len(keys))
	defer c.done()
	return d.wireService.GetBatch(keys, dsts, sts)
}

// --- durable.BlobStore / Appender ---

// blobDecor times blob I/O. With background set, only appender writes are
// on the request path; everything else (snapshot puts, prunes, the fsync
// ticker) is recorded as detached background work.
type blobDecor struct {
	durable.BlobStore
	background                          bool
	put, get, list, del, write, syncOps *probe
	bytesPut                            atomic.Int64
}

func decorateBlob(b durable.BlobStore, p *probes, background bool) *blobDecor {
	return &blobDecor{
		BlobStore:  b,
		background: background,
		put:        p.probe("blob.put"),
		get:        p.probe("blob.get"),
		list:       p.probe("blob.list"),
		del:        p.probe("blob.delete"),
		write:      p.probe("blob.write"),
		syncOps:    p.probe("blob.sync"),
	}
}

var _ durable.BlobStore = (*blobDecor)(nil)

var blobBoundaries = []string{"blob.put", "blob.get", "blob.list", "blob.delete", "blob.write", "blob.sync"}

func (d *blobDecor) enter(p *probe) call {
	if d.background {
		return p.enterDetached()
	}
	return p.enter(0)
}

func (d *blobDecor) Put(key string, data []byte) error {
	c := d.enter(d.put)
	defer c.done()
	d.bytesPut.Add(int64(len(data)))
	return d.BlobStore.Put(key, data)
}

func (d *blobDecor) Get(key string) ([]byte, error) {
	c := d.enter(d.get)
	defer c.done()
	return d.BlobStore.Get(key)
}

func (d *blobDecor) List(prefix string) ([]string, error) {
	c := d.enter(d.list)
	defer c.done()
	return d.BlobStore.List(prefix)
}

func (d *blobDecor) Delete(key string) error {
	c := d.enter(d.del)
	defer c.done()
	return d.BlobStore.Delete(key)
}

func (d *blobDecor) Append(key string) (durable.Appender, error) {
	a, err := d.BlobStore.Append(key)
	if err != nil {
		return nil, err
	}
	return &appenderDecor{Appender: a, d: d}, nil
}

type appenderDecor struct {
	durable.Appender
	d *blobDecor
}

func (a *appenderDecor) Write(p []byte) (int, error) {
	c := a.d.write.enter(0)
	defer c.done()
	return a.Appender.Write(p)
}

func (a *appenderDecor) Sync() error {
	c := a.d.enter(a.d.syncOps)
	defer c.done()
	return a.Appender.Sync()
}

// --- policy.Policy ---

type policyDecor struct {
	inner policy.Policy
	p     *probe
}

func (d *policyDecor) Name() string { return d.inner.Name() }

func (d *policyDecor) Targets(ms tmem.MemStats) []tmem.TargetUpdate {
	c := d.p.enter(0)
	defer c.done()
	return d.inner.Targets(ms)
}

// --- core.Observer ---

// observerDecor is a do-nothing observer whose callbacks are timed: what it
// measures is the cost of the event stream reaching a subscriber.
type observerDecor struct {
	p *probe
}

func (d *observerDecor) OnEvent(core.Event) {
	d.p.enter(0).done()
}
