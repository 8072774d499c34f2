package tmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// This file implements the pluggable page codec of the compressed tier
// (compressed.go): an LZ-class byte-oriented compressor written for the
// fixed-size-page workload (encode appends, decode fills a caller buffer,
// neither allocates once scratch is warm), plus a pass-through codec for
// ablations and codec-cost measurements. Every encoding is self-describing
// — the first byte tags the block format — so a stored blob can always be
// decoded without out-of-band metadata, and a corrupted or truncated blob
// is rejected with an error instead of producing garbage page contents.

// Codec compresses and decompresses page-sized buffers for the compressed
// tier. Encode/Decode may use internal scratch state, so a Codec value is
// NOT safe for concurrent use unless documented otherwise — the compressed
// tier serializes codec calls under its own lock.
type Codec interface {
	// Name identifies the codec ("lz", "nocompress").
	Name() string
	// MaxEncodedLen bounds the encoded size of an n-byte input.
	MaxEncodedLen(n int) int
	// Encode appends the encoded form of src to dst and returns the
	// extended slice. The encoding never exceeds MaxEncodedLen(len(src))
	// appended bytes: incompressible input falls back to a tagged verbatim
	// block.
	Encode(dst, src []byte) []byte
	// Decode decompresses an encoded block into dst and returns the number
	// of bytes written. It returns an error — never panics, never writes
	// partial garbage beyond the returned count — on truncated input,
	// unknown tags, malformed token streams or output exceeding len(dst).
	Decode(dst, src []byte) (int, error)
}

// Block format tags (first byte of every encoding).
const (
	blockRaw byte = 0x00 // verbatim payload follows
	blockLZ  byte = 0x01 // LZ token stream follows
)

// LZ token stream opcodes.
const (
	tokLit   byte = 0x00 // u16 length, then that many literal bytes
	tokMatch byte = 0x01 // u16 offset, u16 length: copy from output history
)

// Codec decode errors. Wrapped with position context by the LZ decoder.
var (
	errCodecTruncated = errors.New("tmem: codec: truncated block")
	errCodecTag       = errors.New("tmem: codec: unknown block tag")
	errCodecToken     = errors.New("tmem: codec: malformed token stream")
	errCodecOverflow  = errors.New("tmem: codec: decoded output exceeds buffer")
)

// --- NoCompress ---

// NoCompress stores pages verbatim behind the block-tag framing: the
// fallback codec for ablations (measure dedup alone) and for hosts where
// codec CPU is the scarce resource. Stateless and safe for concurrent use.
type NoCompress struct{}

// Name implements Codec.
func (NoCompress) Name() string { return "nocompress" }

// MaxEncodedLen implements Codec.
func (NoCompress) MaxEncodedLen(n int) int { return 1 + n }

// Encode implements Codec.
func (NoCompress) Encode(dst, src []byte) []byte {
	dst = append(dst, blockRaw)
	return append(dst, src...)
}

// Decode implements Codec. It accepts only verbatim blocks.
func (NoCompress) Decode(dst, src []byte) (int, error) {
	if len(src) == 0 {
		return 0, errCodecTruncated
	}
	if src[0] != blockRaw {
		return 0, fmt.Errorf("%w: 0x%02x", errCodecTag, src[0])
	}
	payload := src[1:]
	if len(payload) > len(dst) {
		return 0, errCodecOverflow
	}
	return copy(dst, payload), nil
}

// --- LZ codec ---

// lzHashBits sizes the match-finder hash table: 8K entries cover a 64 KiB
// page densely enough for the guest-page entropy mix without blowing the
// L1 cache.
const (
	lzHashBits = 13
	lzMinMatch = 4
	lzMaxU16   = 0xFFFF
)

// LZCodec is a byte-oriented LZ77-family compressor tuned for page-sized
// inputs: greedy hash-table match finding over the raw window, u16
// offset/length tokens (matches may overlap their own output, so runs
// compress to a few bytes), and a verbatim fallback when the token stream
// would not beat raw storage. It holds per-instance scratch (the hash
// table) and is not safe for concurrent use.
type LZCodec struct {
	// table maps a 4-byte-sequence hash to the last position it was seen
	// at plus base (low 32 bits) and those 4 bytes (high 32 bits), so a
	// candidate is rejected without a load from src. An entry below base
	// was left by an earlier call and reads as empty.
	table [1 << lzHashBits]uint64
	// base is the position offset of the next call: each call moves it
	// past its own positions instead of clearing the table, which is
	// cleared only when the offset would wrap. 0 = table not yet cleared.
	base uint32
}

// NewLZCodec returns a fresh LZ codec instance.
func NewLZCodec() *LZCodec { return &LZCodec{} }

// Name implements Codec.
func (c *LZCodec) Name() string { return "lz" }

// MaxEncodedLen implements Codec: the fallback path guarantees tag+verbatim.
func (c *LZCodec) MaxEncodedLen(n int) int { return 1 + n }

// lzHash buckets a 4-byte sequence, given as one little-endian load.
func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzHashBits)
}

// Encode implements Codec.
func (c *LZCodec) Encode(dst, src []byte) []byte {
	start := len(dst)
	if len(src) < 2*lzMinMatch {
		return NoCompress{}.Encode(dst, src)
	}
	if c.base == 0 || uint64(c.base)+uint64(len(src)) > math.MaxUint32 {
		clear(c.table[:])
		c.base = 1
	}
	base := int(c.base)
	c.base += uint32(len(src))
	out := append(dst, blockLZ)
	// Abort to the verbatim fallback the moment the stream stops beating it.
	rawSize := 1 + len(src)
	anchor := 0
	end := len(src) - lzMinMatch
	for i, cand := c.find(src, 0, base); i <= end; i, cand = c.find(src, anchor, base) {
		mlen := lzMatchLen(src, cand, i)
		out = lzAppendLiterals(out, src[anchor:i])
		out = lzAppendMatch(out, i-cand, mlen)
		anchor = i + mlen
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

// find enters positions from i on into the table, in order, until one
// has a usable candidate: an earlier position within u16 reach holding the
// same four bytes. It returns that position and its candidate, or a
// position past len(src)-lzMinMatch when none has one. While eight bytes
// remain, one load feeds four positions. A page that does not compress
// spends its encode here, and probe rejects nearly every position on one
// compare the branch predictor gets right.
func (c *LZCodec) find(src []byte, i, base int) (int, int) {
	for ; i+8 <= len(src); i += 4 {
		w := binary.LittleEndian.Uint64(src[i:])
		if cand := c.probe(uint32(w), i, base); cand >= 0 {
			return i, cand
		}
		if cand := c.probe(uint32(w>>8), i+1, base); cand >= 0 {
			return i + 1, cand
		}
		if cand := c.probe(uint32(w>>16), i+2, base); cand >= 0 {
			return i + 2, cand
		}
		if cand := c.probe(uint32(w>>24), i+3, base); cand >= 0 {
			return i + 3, cand
		}
	}
	for ; i+lzMinMatch <= len(src); i++ {
		if cand := c.probe(binary.LittleEndian.Uint32(src[i:]), i, base); cand >= 0 {
			return i, cand
		}
	}
	return i, -1
}

// probe enters position i, whose four bytes are v, into the table and
// returns the candidate it replaced, or -1 when that entry holds other
// bytes, was left by an earlier call or lies beyond u16 reach.
func (c *LZCodec) probe(v uint32, i, base int) int {
	h := lzHash(v)
	e := c.table[h]
	c.table[h] = uint64(v)<<32 | uint64(base+i)
	cand := int(uint32(e)) - base
	if uint32(e>>32) != v || cand < 0 || i-cand > lzMaxU16 {
		return -1
	}
	return cand
}

// lzMatchLen returns the length of the match between src[cand:] and
// src[i:] (cand < i), whose first lzMinMatch bytes are known equal:
// eight bytes per compare while eight remain, then byte by byte. src does
// not change during a call, so an eight-byte compare of an overlapping
// match finds the same length as comparing one byte at a time.
func lzMatchLen(src []byte, cand, i int) int {
	n := lzMinMatch
	for i+n+8 <= len(src) {
		if x := binary.LittleEndian.Uint64(src[i+n:]) ^ binary.LittleEndian.Uint64(src[cand+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for i+n < len(src) && src[cand+n] == src[i+n] {
		n++
	}
	return n
}

// lzAppendLiterals emits a literal run, split at the u16 length limit.
func lzAppendLiterals(out, lits []byte) []byte {
	for len(lits) > 0 {
		n := len(lits)
		if n > lzMaxU16 {
			n = lzMaxU16
		}
		out = append(out, tokLit, byte(n>>8), byte(n))
		out = append(out, lits[:n]...)
		lits = lits[n:]
	}
	return out
}

// lzAppendMatch emits a match of mlen bytes at back-offset off, split at
// the u16 length limit. Continuation chunks keep the same offset: the
// output cursor and the source cursor advance in lockstep, so the relative
// distance is invariant (and off < mlen legally encodes a repeating run).
func lzAppendMatch(out []byte, off, mlen int) []byte {
	for mlen > 0 {
		n := mlen
		if n > lzMaxU16 {
			n = lzMaxU16
		}
		out = append(out, tokMatch, byte(off>>8), byte(off), byte(n>>8), byte(n))
		mlen -= n
	}
	return out
}

// Decode implements Codec.
func (c *LZCodec) Decode(dst, src []byte) (int, error) {
	if len(src) == 0 {
		return 0, errCodecTruncated
	}
	switch src[0] {
	case blockRaw:
		return NoCompress{}.Decode(dst, src)
	case blockLZ:
	default:
		return 0, fmt.Errorf("%w: 0x%02x", errCodecTag, src[0])
	}
	n := 0
	for p := 1; p < len(src); {
		switch src[p] {
		case tokLit:
			if p+3 > len(src) {
				return 0, errCodecTruncated
			}
			l := int(src[p+1])<<8 | int(src[p+2])
			p += 3
			if l == 0 {
				return 0, errCodecToken
			}
			if p+l > len(src) {
				return 0, errCodecTruncated
			}
			if n+l > len(dst) {
				return 0, errCodecOverflow
			}
			copy(dst[n:], src[p:p+l])
			n += l
			p += l
		case tokMatch:
			if p+5 > len(src) {
				return 0, errCodecTruncated
			}
			off := int(src[p+1])<<8 | int(src[p+2])
			l := int(src[p+3])<<8 | int(src[p+4])
			p += 5
			if off == 0 || off > n || l == 0 {
				return 0, errCodecToken
			}
			if n+l > len(dst) {
				return 0, errCodecOverflow
			}
			// An off >= l match is one copy. An off < l match legally
			// replicates its own output (run-length encoding): the output
			// repeats with period off, so each copy doubles the run already
			// written and never overlaps its source.
			pos := n - off
			for k := 0; k < l; {
				k += copy(dst[n+k:n+l], dst[pos:n+k])
			}
			n += l
		default:
			return 0, fmt.Errorf("%w: opcode 0x%02x", errCodecToken, src[p])
		}
	}
	return n, nil
}

// hashBlob returns a well-mixed 64-bit content hash of a raw page, the
// dedup-index key of the compressed tier: FNV-1a's xor-multiply taken
// eight bytes at a step (the rotate carries each word's high bits back down
// to where the next multiply spreads them), a byte-wise tail, and the
// splitmix64 finalizer. The hash keys an in-memory map whose chains compare
// the encoded bytes; nothing persists it.
func hashBlob(b []byte) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for ; len(b) >= 8; b = b[8:] {
		h = bits.RotateLeft64((h^binary.LittleEndian.Uint64(b))*fnvPrime, 29)
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return mix64(h)
}

// Compile-time interface checks.
var (
	_ Codec = NoCompress{}
	_ Codec = (*LZCodec)(nil)
)
