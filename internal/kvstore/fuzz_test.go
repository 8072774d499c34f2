package kvstore

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"

	"smartmem/internal/tmem"
)

// FuzzServeConn feeds arbitrary bytes to Server.ServeConn as one client's
// request stream, against a small sharded backend: whatever the frames say
// — batch frames included — the server must not panic, must return once
// the input ends, and must leave the backend's accounting consistent.
func FuzzServeConn(f *testing.F) {
	const pageSize = 64
	frame := func(op byte, key tmem.Key, payload []byte) []byte {
		b := key.AppendWire([]byte{op})
		b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
		return append(b, payload...)
	}
	k0, k1 := tmem.Key{Object: 1, Index: 2}, tmem.Key{Object: 1, Index: 3}
	page := make([]byte, pageSize)
	for i := range page {
		page[i] = byte(i)
	}
	putBatch := binary.BigEndian.AppendUint32(nil, 2)
	for _, k := range []tmem.Key{k0, k1} {
		putBatch = binary.BigEndian.AppendUint32(k.AppendWire(putBatch), pageSize)
		putBatch = append(putBatch, page...)
	}
	getBatch := k1.AppendWire(k0.AppendWire(binary.BigEndian.AppendUint32(nil, 2)))
	session := frame(OpNewPool, tmem.Key{Pool: 1, Object: tmem.ObjectID(tmem.Persistent)}, nil)
	for _, fr := range [][]byte{
		frame(OpPut, k0, page),
		frame(OpGet, k0, nil),
		frame(OpPutBatch, tmem.Key{}, putBatch),
		frame(OpGetBatch, tmem.Key{}, getBatch),
		frame(OpFlushPage, k1, nil),
		frame(OpFlushObject, k0, nil),
		frame(OpDestroyPool, k0, nil),
	} {
		session = append(session, fr...)
		f.Add(fr)
	}
	f.Add(session)
	f.Add(session[:len(session)-7])                                  // truncated mid-frame
	f.Add(frame(OpPutBatch, tmem.Key{}, putBatch[:len(putBatch)-9])) // item overruns the frame
	f.Add(frame(OpPutBatch, tmem.Key{}, append(putBatch, 7)))        // trailing bytes after the last item
	f.Add(frame(99, k0, nil))                                        // unknown op
	// An unknown pool kind, then a put into the pool it must not have made.
	f.Add(append(frame(OpNewPool, tmem.Key{Pool: 1, Object: 7}, nil), frame(OpPut, k0, page)...))

	f.Fuzz(func(t *testing.T, in []byte) {
		b := tmem.NewBackendOpts(16, tmem.Options{
			Shards:   4,
			NewStore: func() tmem.PageStore { return tmem.NewDataStore(pageSize) },
		})
		client, server := net.Pipe()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // the request stream, then end of input
			defer wg.Done()
			_, _ = client.Write(in)
			client.Close()
		}()
		go func() { // responses go nowhere
			defer wg.Done()
			_, _ = io.Copy(io.Discard, client)
		}()
		_ = NewServerStore(b).ServeConn(server)
		wg.Wait()
		if err := b.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
