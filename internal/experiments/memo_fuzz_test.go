package experiments

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"smartmem/internal/core"
	"smartmem/internal/durable"
	"smartmem/internal/mem"
	"smartmem/internal/metrics"
	"smartmem/internal/policy"
)

// sealScalarPayload wraps arbitrary payload bytes in a valid scalar-record
// envelope, so a mutated payload gets past the length and checksum gates.
func sealScalarPayload(fp Fingerprint, payload []byte) []byte {
	b := appendBlobHead(nil, memoMagic, fp)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, memoCRC))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	return append(b, payload...)
}

// FuzzMemoDecode feeds arbitrary bytes to the two field decoders behind a
// re-sealed envelope (valid header, length and checksum, as bit rot under a
// colliding CRC or a hostile cache directory would present them). Neither
// may panic, and the encoding is canonical: whatever a decoder accepts
// re-encodes to the same bytes.
func FuzzMemoDecode(f *testing.F) {
	fp := Fingerprint{0xfe}

	// Real cells: single-node, cluster, and one node with both the
	// compressed and the durable tier attached.
	both := NewScenario(Scenario{Slug: "fuzz-compressed-durable", TmemBytes: 96 * mem.MiB},
		func(seed uint64, pol policy.Policy, tmemOn bool) core.Config {
			cfg := usememClusterNode(seed, pol, tmemOn, 3, 96*mem.MiB, 2)
			cfg.CompressBytes = 64 * mem.MiB
			cfg.DurableBlob = durable.NewMemStore()
			return cfg
		})
	for _, tc := range []struct {
		s      *Scenario
		policy string
	}{
		{mustScale("scale-2"), "greedy"},
		{Cluster2Scenario, "smart-alloc:P=2"},
		{both, "smart-alloc:P=2"},
	} {
		res, err := RunOne(tc.s, tc.policy, 11)
		if err != nil {
			f.Fatal(err)
		}
		// The first ticks of every series: the fuzzer minimizes each
		// interesting input byte by byte, and a whole run's 40 KB of samples
		// would have it spend its time there.
		head := metrics.NewSet()
		for _, name := range res.Series.Names() {
			pts := res.Series.Get(name).Points()
			if err := head.AddSeries(name, pts[:min(8, len(pts))]); err != nil {
				f.Fatal(err)
			}
		}
		series := encodeSeriesBlob(nil, fp, head)
		scalars := encodeScalarRecord(nil, fp, res, refOf(series))
		f.Add(scalars[blobHeadLen+12:], series[blobHeadLen:])
	}
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, scalarPayload, seriesBody []byte) {
		record := sealScalarPayload(fp, scalarPayload)
		if res, ref, err := decodeScalarRecord(fp, record); err == nil {
			if again := encodeScalarRecord(nil, fp, res, ref); !bytes.Equal(again, record) {
				t.Fatalf("accepted scalar record re-encodes differently:\n in %x\nout %x", record, again)
			}
		}
		blob := append(appendBlobHead(nil, seriesMagic, fp), seriesBody...)
		if set, err := decodeSeriesBlob(fp, refOf(blob), blob); err == nil {
			if again := encodeSeriesBlob(nil, fp, set); !bytes.Equal(again, blob) {
				t.Fatalf("accepted series blob re-encodes differently (%d bytes in, %d out)", len(blob), len(again))
			}
		}
	})
}

// FuzzMemoPack stores arbitrary bytes as the pack of a fixed 4-cell sweep
// whose per-cell records are intact. Reading it must not panic; every cell
// the pack serves must equal the per-cell decode, and every other cell must
// fall back to its record — so the sweep ends with 4 hits, no miss and no
// corrupt count whatever the pack holds.
func FuzzMemoPack(f *testing.F) {
	jobs := Matrix([]*Scenario{mustScale("scale-2")}, []string{"greedy", "smart-alloc:P=2"}, []uint64{11, 23})
	cells := durable.NewMemStore()
	if _, err := (Options{Parallelism: 2, Cache: NewMemo(cells)}).run(jobs, false); err != nil {
		f.Fatal(err, false)
	}
	fps := make([]Fingerprint, len(jobs))
	recs := make([][]byte, len(jobs))
	want := make([]*core.Result, len(jobs))
	for i, j := range jobs {
		var err error
		if fps[i], err = JobFingerprint(j); err != nil {
			f.Fatal(err)
		}
		if recs[i], err = cells.Get(memoKey(fps[i])); err != nil {
			f.Fatal(err)
		}
		if want[i], _, err = decodeScalarRecord(fps[i], recs[i]); err != nil {
			f.Fatal(err)
		}
	}
	key := packKey(fps)
	pack, err := cells.Get(key)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pack)
	f.Add(pack[:len(pack)-1])
	f.Add(bytes.Join([][]byte{recs[0], recs[2]}, nil))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, pack []byte) {
		store := durable.NewMemStore()
		for i, fp := range fps {
			if err := store.Put(memoKey(fp), recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Put(key, pack); err != nil {
			t.Fatal(err)
		}
		served, _ := NewMemo(store).recall(key, fps, false)
		for i, res := range served {
			if res != nil && !reflect.DeepEqual(res, want[i]) {
				t.Fatalf("cell %d: the pack serves a result that differs from its record's", i)
			}
		}
		m := NewMemo(store)
		got, err := Options{Parallelism: 1, Cache: m}.run(jobs, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].Result, want[i]) {
				t.Fatalf("cell %d: the sweep returns a result that differs from its record's", i)
			}
		}
		if st := m.Stats(); st.Hits != uint64(len(jobs)) || st.Misses != 0 || st.Corrupt != 0 || st.Writes != 0 {
			t.Fatalf("stats = %+v, want %d hits and nothing else", st, len(jobs))
		}
	})
}
