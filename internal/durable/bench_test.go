package durable

import (
	"fmt"
	"testing"

	"smartmem/internal/tmem"
)

// BenchmarkWALAppend measures the journaling hot path: one page put =
// build record + checksum + append (+ group commit under fsync=always on
// a real file). The mem variants isolate the codec/locking cost; the dir
// variants add the kernel write path.
func BenchmarkWALAppend(b *testing.B) {
	const pageSize = 4096
	data := make([]byte, pageSize)
	for i := range data {
		data[i] = byte(i * 31)
	}

	run := func(name string, mkBlob func(b *testing.B) BlobStore, fsync FsyncPolicy) {
		b.Run(name, func(b *testing.B) {
			opts := Options{
				Blob:          mkBlob(b),
				PageSize:      pageSize,
				Fsync:         fsync,
				InlineCompact: true,
				CompactBytes:  -1,
			}
			l, err := Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			if err := l.NewPool(0, 1, tmem.Persistent); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(pageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := tmem.Key{Pool: 0, Object: tmem.ObjectID(i >> 16), Index: tmem.PageIndex(i)}
				if err := l.Put(k, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	memBlob := func(b *testing.B) BlobStore { return NewMemStore() }
	dirBlob := func(b *testing.B) BlobStore {
		d, err := NewDirStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	run("mem-nofsync", memBlob, FsyncOff)
	run("dir-nofsync", dirBlob, FsyncOff)
	run("dir-fsync-always", dirBlob, FsyncAlways)
}

// BenchmarkWALAppendBatch measures the batched group-commit path.
func BenchmarkWALAppendBatch(b *testing.B) {
	const pageSize = 4096
	for _, batch := range []int{16, 256} {
		b.Run(fmt.Sprintf("mem-batch-%d", batch), func(b *testing.B) {
			l, err := Open(Options{
				Blob:          NewMemStore(),
				PageSize:      pageSize,
				Fsync:         FsyncOff,
				InlineCompact: true,
				CompactBytes:  -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			if err := l.NewPool(0, 1, tmem.Persistent); err != nil {
				b.Fatal(err)
			}
			keys := make([]tmem.Key, batch)
			datas, sts := make([][]byte, batch), make([]tmem.Status, batch) // all STmem
			data := make([]byte, pageSize)
			for i := range datas {
				datas[i] = data
			}
			b.SetBytes(int64(pageSize * batch))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range keys {
					keys[j] = tmem.Key{Pool: 0, Object: tmem.ObjectID(i), Index: tmem.PageIndex(j)}
				}
				if err := l.PutBatch(keys, datas, sts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLogPutBatch measures what journaling a 16-page batch costs the
// process: one framed append and sixteen index entries. B/op is the point —
// the journal keeps no copy of the pages it is handed.
func BenchmarkLogPutBatch(b *testing.B) {
	const pageSize, batch = 4096, 16
	for _, store := range []string{"mem", "dir"} {
		b.Run(store, func(b *testing.B) {
			var blob BlobStore = NewMemStore()
			if store == "dir" {
				d, err := NewDirStore(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				blob = d
			}
			l, err := Open(Options{
				Blob: blob, PageSize: pageSize,
				Fsync: FsyncOff, InlineCompact: true, CompactBytes: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			if err := l.NewPool(0, 1, tmem.Persistent); err != nil {
				b.Fatal(err)
			}
			keys := make([]tmem.Key, batch)
			datas, sts := make([][]byte, batch), make([]tmem.Status, batch) // all STmem
			for i := range datas {
				datas[i] = make([]byte, pageSize)
			}
			// 2048 objects of 16 pages, the serve-put-tiers live set: indexed
			// once before the clock starts, overwritten in place under it.
			const objects = 2048
			putBatch := func(i int) {
				for j := range keys {
					keys[j] = tmem.Key{Pool: 0, Object: tmem.ObjectID(i % objects), Index: tmem.PageIndex(j)}
				}
				if err := l.PutBatch(keys, datas, sts); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < objects; i++ {
				putBatch(i)
			}
			b.SetBytes(pageSize * batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				putBatch(i)
			}
		})
	}
}

// BenchmarkCompact measures one compaction of a serving-sized journal
// (32 Ki pages of 4 KiB, the serve-put-tiers live set) over an in-memory
// store that recycles its buffers. MB/s is page bytes through the snapshot.
//
//   - copy: every blob is dirtied before each compaction (one page flushed
//     and put back, outside the clock), so each one copies every page: cut,
//     sort, read back, checksum, write, re-point. B/op is the streaming
//     contract — two locations per page plus one slab buffer, nowhere near
//     the 128 MiB of pages.
//   - link: the bulk-loaded state unchanged, so each compaction copies slab
//     0 (the pool record and the pages beside it) and links every other
//     slab: what is left is the cut and the re-point.
func BenchmarkCompact(b *testing.B) {
	const pages, pageSize = 32 << 10, 4096
	for _, mode := range []string{"copy", "link"} {
		b.Run(mode, func(b *testing.B) {
			l, err := Open(Options{
				Blob: newKeepStore(), PageSize: pageSize,
				Fsync: FsyncOff, InlineCompact: true, CompactBytes: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			fillPages(b, l, pages, pageSize)
			for i := 0; i < 2; i++ { // the store's buffers: one snapshot's and its predecessor's
				if mode == "copy" {
					dirtyEveryBlob(b, l)
				}
				if err := l.Compact(); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(pages * pageSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "copy" {
					b.StopTimer()
					dirtyEveryBlob(b, l)
					b.StartTimer()
				}
				if err := l.Compact(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
