package tkm

import (
	"bytes"
	"net"
	"testing"

	"smartmem/internal/tmem"
)

// bufConn is a net.Conn over memory: reads drain r, writes land in w.
type bufConn struct {
	net.Conn
	r *bytes.Reader
	w bytes.Buffer
}

func (c *bufConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *bufConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// FuzzTKMFrame feeds arbitrary bytes to the TKM frame reader and each
// accepted payload to both payload decoders. Whatever is accepted must
// re-encode to exactly the bytes it was read from: the frame, and the
// prefix of the payload a decoder consumed.
func FuzzTKMFrame(f *testing.F) {
	frame := func(typ byte, payload []byte) []byte {
		var c bufConn
		if err := NewConn(&c).writeFrame(typ, payload); err != nil {
			f.Fatal(err)
		}
		return c.w.Bytes()
	}
	stats := frame(MsgStats, tmem.MemStats{IntervalSeq: 3, TotalTmem: 1024, FreeTmem: 17, EffectiveTmem: 2048,
		VMs: []tmem.VMStat{{ID: 1, PutsTotal: 9, PutsSucc: 7, TmemUsed: 500, MMTarget: 600, CumulPutsFailed: 2}, {ID: 2}}}.AppendWire(nil))
	targets := frame(MsgTargets, tmem.AppendTargetsWire(nil, []tmem.TargetUpdate{{ID: 1, MMTarget: 300}, {ID: 2, MMTarget: tmem.Unlimited}}))
	f.Add(stats)
	f.Add(targets)
	f.Add(append(append([]byte{}, stats...), targets...))
	f.Add(stats[:len(stats)-3])                       // truncated payload
	f.Add([]byte{MsgTargets, 0xFF, 0xFF, 0xFF, 0xFF}) // length beyond MaxFrameSize

	f.Fuzz(func(t *testing.T, in []byte) {
		c := &bufConn{r: bytes.NewReader(in)}
		conn := NewConn(c)
		for off := 0; ; {
			typ, payload, err := conn.readFrame()
			if err != nil {
				return
			}
			c.w.Reset()
			if err := conn.writeFrame(typ, payload); err != nil {
				t.Fatal(err)
			}
			n := c.w.Len()
			if !bytes.Equal(c.w.Bytes(), in[off:off+n]) {
				t.Fatalf("frame at %d re-encodes as %x, read from %x", off, c.w.Bytes(), in[off:off+n])
			}
			off += n
			if ms, used, err := tmem.MemStatsFromWire(payload); err == nil {
				if enc := ms.AppendWire(nil); !bytes.Equal(enc, payload[:used]) {
					t.Fatalf("memstats re-encode as %x, read from %x", enc, payload[:used])
				}
			}
			if ts, used, err := tmem.TargetsFromWire(payload); err == nil {
				if enc := tmem.AppendTargetsWire(nil, ts); !bytes.Equal(enc, payload[:used]) {
					t.Fatalf("targets re-encode as %x, read from %x", enc, payload[:used])
				}
			}
		}
	})
}
