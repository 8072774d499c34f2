package tmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
)

// refLZCodec is the LZ encoder written plainly: a 32-bit position table
// cleared on every call, a load of src to check each candidate, and
// byte-at-a-time match extension. It is the reference LZCodec.Encode must
// reproduce byte for byte (FuzzLZEncodeMatchesReference,
// TestLZEncodeMatchesReference) and the baseline BenchmarkLZEncode
// measures against.
type refLZCodec struct {
	// table maps 4-byte-sequence hashes to position+1 in the current src
	// (0 = empty); cleared per Encode call.
	table [1 << lzHashBits]int32
}

// Encode appends the reference encoding of src to dst.
func (c *refLZCodec) Encode(dst, src []byte) []byte {
	start := len(dst)
	if len(src) < 2*lzMinMatch {
		return NoCompress{}.Encode(dst, src)
	}
	clear(c.table[:])
	out := append(dst, blockLZ)
	// Abort to the verbatim fallback the moment the stream stops beating it.
	rawSize := 1 + len(src)
	anchor := 0
	end := len(src) - lzMinMatch
	for i := 0; i <= end; {
		v := binary.LittleEndian.Uint32(src[i:])
		h := lzHash(v)
		cand := int(c.table[h]) - 1
		c.table[h] = int32(i + 1)
		if cand < 0 || i-cand > lzMaxU16 || binary.LittleEndian.Uint32(src[cand:]) != v {
			i++
			continue
		}
		mlen := lzMinMatch
		for i+mlen < len(src) && src[cand+mlen] == src[i+mlen] {
			mlen++
		}
		out = lzAppendLiterals(out, src[anchor:i])
		out = lzAppendMatch(out, i-cand, mlen)
		anchor = i + mlen
		i = anchor
		if len(out)-start >= rawSize {
			return NoCompress{}.Encode(dst[:start], src)
		}
	}
	out = lzAppendLiterals(out, src[anchor:])
	if len(out)-start >= rawSize {
		return NoCompress{}.Encode(dst[:start], src)
	}
	return out
}

// refCorpus is the table TestLZEncodeMatchesReference runs: the codec test
// mix at 1 KiB, 4 KiB and 64 KiB, and the serve workloads' page classes.
func refCorpus() map[string][]byte {
	corpus := map[string][]byte{}
	for _, pageSize := range []int{1024, 4096, 65536} {
		for label, p := range codecTestPages(pageSize) {
			corpus[fmt.Sprintf("%s/%d", label, pageSize)] = p
		}
	}
	for class, pages := range serveTestPages(7, 4) {
		for i, p := range pages {
			corpus[fmt.Sprintf("serve-%s/%d", class, i)] = p
		}
	}
	return corpus
}

// matchesReference encodes src twice with c, after whatever c encoded
// before, both times after a copy of prefix, and fails unless each result
// is the reference encoder's output byte for byte.
func matchesReference(t *testing.T, c *LZCodec, prefix, src []byte) {
	t.Helper()
	want := new(refLZCodec).Encode(append([]byte(nil), prefix...), src)
	for pass := 0; pass < 2; pass++ {
		if got := c.Encode(append([]byte(nil), prefix...), src); !bytes.Equal(got, want) {
			t.Fatalf("pass %d over %d bytes: encoding differs from the reference (%d bytes, want %d)",
				pass, len(src), len(got), len(want))
		}
	}
}

// TestLZEncodeMatchesReference runs the corpus through one codec, so every
// call after the first starts over a table holding the earlier calls'
// entries, and once more from a base about to wrap.
func TestLZEncodeMatchesReference(t *testing.T) {
	corpus := refCorpus()
	for _, wrap := range []bool{false, true} {
		c := NewLZCodec()
		if wrap {
			c.Encode(nil, corpus["text/4096"])
			c.base = math.MaxUint32 - 70000
		}
		for _, label := range slices.Sorted(maps.Keys(corpus)) {
			src := corpus[label]
			t.Run(fmt.Sprintf("wrap=%v/%s", wrap, label), func(t *testing.T) {
				matchesReference(t, c, nil, src)
				matchesReference(t, c, []byte("prefix"), src)
			})
		}
	}
}

// FuzzLZEncodeMatchesReference: any input, appended to any non-empty dst
// prefix, encodes to the reference encoder's bytes, on a fresh codec and on
// one that has encoded before.
func FuzzLZEncodeMatchesReference(f *testing.F) {
	for _, p := range codecTestPages(1024) {
		f.Add(p, []byte{blockLZ})
	}
	for _, pages := range serveTestPages(7, 1) {
		f.Add(pages[0], []byte("prefix"))
	}
	f.Add([]byte("abcabcabcabc"), []byte{0})
	f.Fuzz(func(t *testing.T, src, prefix []byte) {
		if len(prefix) == 0 {
			prefix = []byte{0}
		}
		c := NewLZCodec()
		matchesReference(t, c, prefix, src)
		matchesReference(t, c, prefix, append(src, src...))
	})
}

// BenchmarkLZEncode times the LZ encoder against the reference encoder on
// the serve workloads' page classes, one at a time and mixed in the
// workloads' proportions (half text, a quarter each dup and random). Each
// set cycles through 64 distinct pages, too many for the branch predictor
// to learn the parse of each by heart.
func BenchmarkLZEncode(b *testing.B) {
	pages := serveTestPages(7, 64)
	sets := map[string][][]byte{"text": pages["text"], "dup": pages["dup"], "random": pages["random"]}
	for k := 0; k < 16; k++ {
		sets["mix"] = append(sets["mix"], pages["text"][2*k], pages["dup"][k], pages["text"][2*k+1], pages["random"][k])
	}
	encoders := map[string]func(dst, src []byte) []byte{
		"lz":  NewLZCodec().Encode,
		"ref": new(refLZCodec).Encode,
	}
	for _, set := range []string{"text", "dup", "random", "mix"} {
		for _, enc := range []string{"lz", "ref"} {
			b.Run(set+"/"+enc, func(b *testing.B) {
				encode, srcs := encoders[enc], sets[set]
				out := make([]byte, 0, 2*testPage)
				b.ReportAllocs()
				b.SetBytes(testPage)
				for i := 0; i < b.N; i++ {
					out = encode(out[:0], srcs[i%len(srcs)])
				}
			})
		}
	}
}

// BenchmarkLZDecode times decoding the serve workloads' text pages.
func BenchmarkLZDecode(b *testing.B) {
	c := NewLZCodec()
	var encs [][]byte
	for _, p := range serveTestPages(7, 64)["text"] {
		encs = append(encs, c.Encode(nil, p))
	}
	dst := make([]byte, testPage)
	b.ReportAllocs()
	b.SetBytes(testPage)
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(dst, encs[i%len(encs)]); err != nil {
			b.Fatal(err)
		}
	}
}
