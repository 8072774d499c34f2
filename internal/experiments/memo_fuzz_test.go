package experiments

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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
