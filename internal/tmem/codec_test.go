package tmem

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	randv2 "math/rand/v2"
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

// serveVocabulary is the word list of the serve workloads' text pages.
var serveVocabulary = []string{
	"page", "frame", "tmem", "guest", "swap", "evict", "refault", "target", "policy", "hypervisor",
	"put", "get", "flush", "pool", "object", "index", "ephemeral", "persistent", "sample", "interval",
	"memory", "pressure", "balloon", "cache", "clean", "dirty", "writeback", "reclaim", "zone", "node",
}

// serveTestPages builds n 4 KiB pages of each body class the end-to-end
// serve workloads put, generated as they generate them: "text" is word
// salad over a small vocabulary, "dup" is the same salad left unstamped
// (those pages repeat byte for byte across keys, so they dedup), and
// "random" is incompressible. Text and random pages carry a 16-byte
// (key, sequence) stamp at the front, which keeps each one unique.
func serveTestPages(seed uint64, n int) map[string][][]byte {
	rng := randv2.New(randv2.NewPCG(seed, 0x706167657321))
	salad := func() []byte {
		var buf bytes.Buffer
		for buf.Len() < testPage {
			buf.WriteString(serveVocabulary[rng.IntN(len(serveVocabulary))])
			buf.WriteByte(' ')
		}
		return buf.Bytes()[:testPage]
	}
	stamp := func(p []byte, key int) []byte {
		binary.BigEndian.PutUint64(p, uint64(key))
		binary.BigEndian.PutUint64(p[8:], seed)
		return p
	}
	pages := map[string][][]byte{}
	for i := 0; i < n; i++ {
		pages["text"] = append(pages["text"], stamp(salad(), i))
		pages["dup"] = append(pages["dup"], salad())
		random := make([]byte, testPage)
		for j := 0; j < testPage; j += 8 {
			binary.LittleEndian.PutUint64(random[j:], rng.Uint64())
		}
		pages["random"] = append(pages["random"], stamp(random, i))
	}
	return pages
}

func TestCodecRoundTrip(t *testing.T) {
	const pageSize = 65536
	for _, codec := range []Codec{NewLZCodec(), NoCompress{}} {
		name := codec.Name()
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
	var corpus [][]byte
	for _, pageSize := range []int{4096, 65536} {
		pages := codecTestPages(pageSize)
		labels := make([]string, 0, len(pages))
		for label := range pages {
			labels = append(labels, label)
		}
		sort.Strings(labels)
		for _, label := range labels {
			corpus = append(corpus, pages[label])
		}
	}
	if got := encodingDigest(NewLZCodec().Encode, corpus); got != want {
		t.Fatalf("LZ output over the test corpus hashes to %s, want %s", got, want)
	}
}

// TestCodecServeOutputPinned pins the LZ encoder's output over the serve
// workloads' page classes (16 pages each of text, dup and random, in that
// order) to the digest the byte-at-a-time encoder produced: the bytes the
// end-to-end benchmark's compressed tier stores and dedups.
func TestCodecServeOutputPinned(t *testing.T) {
	const want = "2d5a630aa7bcfdbab53bf623247cf8a5c716689b7f25b375fd8d09001c9cb28a"
	pages := serveTestPages(7, 16)
	var corpus [][]byte
	for _, class := range []string{"text", "dup", "random"} {
		corpus = append(corpus, pages[class]...)
	}
	if got := encodingDigest(NewLZCodec().Encode, corpus); got != want {
		t.Fatalf("LZ output over the serve page classes hashes to %s, want %s", got, want)
	}
}

// encodingDigest hashes every page's encoding, each behind its length, in
// order, with one encoder instance.
func encodingDigest(encode func(dst, src []byte) []byte, pages [][]byte) string {
	h := sha256.New()
	for _, p := range pages {
		enc := encode(nil, p)
		h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(enc))))
		h.Write(enc)
	}
	return hex.EncodeToString(h.Sum(nil))
}
