package tmem

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sort"
	"testing"
)

// codecTestPages builds the page-content mix the tier sees in practice:
// zeros, runs, periodic patterns, text-like bytes and incompressible noise.
func codecTestPages(pageSize int) map[string][]byte {
	rng := rand.New(rand.NewSource(11))
	pages := map[string][]byte{
		"zeros": make([]byte, pageSize),
		"ones":  bytes.Repeat([]byte{0xFF}, pageSize),
	}
	period := make([]byte, pageSize)
	for i := range period {
		period[i] = byte(i % 7)
	}
	pages["periodic"] = period
	phrase := []byte("the quick brown fox jumps over the lazy dog. ")
	pages["text"] = bytes.Repeat(phrase, pageSize/len(phrase)+1)[:pageSize]
	noise := make([]byte, pageSize)
	rng.Read(noise)
	pages["noise"] = noise
	sparse := make([]byte, pageSize)
	for i := 0; i < pageSize; i += 517 {
		sparse[i] = byte(i)
	}
	pages["sparse"] = sparse
	return pages
}

func TestCodecRoundTrip(t *testing.T) {
	const pageSize = 65536
	for _, name := range CodecNames() {
		codec, err := CodecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for label, page := range codecTestPages(pageSize) {
			enc := codec.Encode(nil, page)
			if len(enc) > codec.MaxEncodedLen(len(page)) {
				t.Errorf("%s/%s: encoded %d bytes > MaxEncodedLen %d",
					name, label, len(enc), codec.MaxEncodedLen(len(page)))
			}
			dst := make([]byte, pageSize)
			n, err := codec.Decode(dst, enc)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", name, label, err)
			}
			if n != pageSize || !bytes.Equal(dst[:n], page) {
				t.Errorf("%s/%s: round trip mismatch (%d bytes)", name, label, n)
			}
		}
	}
}

func TestCodecDeterministic(t *testing.T) {
	codec := NewLZCodec()
	for label, page := range codecTestPages(4096) {
		a := codec.Encode(nil, page)
		b := codec.Encode(nil, page)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: codec not deterministic", label)
		}
	}
}

func TestLZCompressesTestMix(t *testing.T) {
	codec := NewLZCodec()
	pages := codecTestPages(65536)
	for _, label := range []string{"zeros", "ones", "periodic", "text"} {
		enc := codec.Encode(nil, pages[label])
		if len(enc) >= len(pages[label])/2 {
			t.Errorf("%s: encoded to %d bytes, want < 2x compression", label, len(enc))
		}
	}
	// Noise must fall back to the verbatim block, never expand past the bound.
	enc := codec.Encode(nil, pages["noise"])
	if len(enc) != 1+len(pages["noise"]) || enc[0] != blockRaw {
		t.Errorf("noise: want verbatim fallback, got %d bytes tag 0x%02x", len(enc), enc[0])
	}
}

func TestCodecByNameUnknown(t *testing.T) {
	if _, err := CodecByName("zstd"); err == nil {
		t.Fatal("want error for unknown codec")
	}
}

// TestCodecRejectsCorruption drives every decoder over truncated, bit-flipped
// and hand-crafted malformed inputs: each must return an error or a clean
// round trip — never panic, and never report success with wrong contents.
func TestCodecRejectsCorruption(t *testing.T) {
	const pageSize = 4096
	codec := NewLZCodec()
	page := codecTestPages(pageSize)["text"]
	enc := codec.Encode(nil, page)
	dst := make([]byte, pageSize)

	// Every truncation must error (the empty input included).
	for cut := 0; cut < len(enc); cut++ {
		if n, err := codec.Decode(dst, enc[:cut]); err == nil && n == pageSize && bytes.Equal(dst[:n], page) {
			t.Fatalf("truncation to %d bytes decoded to a full clean page", cut)
		}
	}

	// Malformed streams that must be rejected outright.
	malformed := map[string][]byte{
		"unknown tag":        {0x7F, 1, 2, 3},
		"unknown opcode":     {blockLZ, 0x7F},
		"zero literal len":   {blockLZ, tokLit, 0, 0},
		"zero match len":     {blockLZ, tokLit, 0, 1, 'x', tokMatch, 0, 1, 0, 0},
		"zero match off":     {blockLZ, tokLit, 0, 1, 'x', tokMatch, 0, 0, 0, 1},
		"match before start": {blockLZ, tokLit, 0, 1, 'x', tokMatch, 0, 9, 0, 1},
		"overflow literals":  append([]byte{blockLZ, tokLit, 0xFF, 0xFF}, make([]byte, 0xFFFF)...),
	}
	small := make([]byte, 16)
	for name, in := range malformed {
		if _, err := codec.Decode(small, in); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}

	// Raw block larger than dst must be rejected, not truncated silently.
	raw := (NoCompress{}).Encode(nil, page)
	if _, err := codec.Decode(small, raw); err == nil {
		t.Error("raw overflow: decode accepted oversized payload")
	}
}

// FuzzCodecRoundTrip checks two properties at once: (a) any input data
// round-trips exactly through encode/decode, and (b) the decoder survives
// arbitrary (prefix-corrupted) encodings without panicking, and any decode
// it accepts fits the destination buffer.
func FuzzCodecRoundTrip(f *testing.F) {
	pages := codecTestPages(1024)
	for _, p := range pages {
		f.Add(p, byte(0), 0)
	}
	f.Add([]byte{}, byte(1), 1)
	f.Add([]byte("abcabcabcabc"), byte(0xFF), 2)
	f.Fuzz(func(t *testing.T, data []byte, flip byte, at int) {
		codec := NewLZCodec()
		enc := codec.Encode(nil, data)
		dst := make([]byte, len(data))
		n, err := codec.Decode(dst, enc)
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if n != len(data) || !bytes.Equal(dst[:n], data) {
			t.Fatalf("round trip mismatch: %d bytes of %d", n, len(data))
		}

		// Corrupt one byte (and separately truncate) and decode again: any
		// outcome but a panic or an out-of-bounds write is acceptable.
		if len(enc) > 0 {
			idx := int(uint(at) % uint(len(enc)))
			corrupt := append([]byte(nil), enc...)
			corrupt[idx] ^= flip
			if m, err := codec.Decode(dst, corrupt); err == nil && m > len(dst) {
				t.Fatalf("corrupted decode overflowed: %d > %d", m, len(dst))
			}
			if m, err := codec.Decode(dst, enc[:idx]); err == nil && m > len(dst) {
				t.Fatalf("truncated decode overflowed: %d > %d", m, len(dst))
			}
		}
	})
}

// TestCodecOutputPinned pins the LZ encoder's output over the test corpus
// (both page sizes, labels in sorted order) to the digest recorded before
// the match check became one 32-bit compare: a faster encoder must emit
// the same bytes, or tmem.compressed.ratio and every dedup hit move.
func TestCodecOutputPinned(t *testing.T) {
	const want = "fbf6d292621ce183d22c6a1bb859d1030b5b991eb3470636a0e08887b35d8b6b"
	codec := NewLZCodec()
	h := sha256.New()
	for _, pageSize := range []int{4096, 65536} {
		pages := codecTestPages(pageSize)
		labels := make([]string, 0, len(pages))
		for label := range pages {
			labels = append(labels, label)
		}
		sort.Strings(labels)
		for _, label := range labels {
			enc := codec.Encode(nil, pages[label])
			h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(enc))))
			h.Write(enc)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("LZ output over the test corpus hashes to %s, want %s", got, want)
	}
}
