package main

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
)

// Page bodies. Every body a workload puts is a function of (seed, key id,
// put sequence number), so a reader that knows which put a page holds can
// rebuild the expected bytes without keeping a copy.
//
// Three classes, chosen per put by a hash of (key, sequence):
//
//	text   ½  word salad from a small vocabulary — compresses well
//	dup    ¼  one of 64 hot pages, byte-identical across keys — dedups
//	random ¼  incompressible
//
// Text and random bodies carry a 16-byte stamp (key id, sequence) so they
// are unique; dup bodies are unstamped so they stay identical.

const (
	pageSize   = 4096
	stampBytes = 16
	poolBodies = 256
	hotBodies  = 64
)

type bodyClass uint8

const (
	classText bodyClass = iota
	classDup
	classRandom
)

type pageBodies struct {
	text, random [poolBodies][]byte
	hot          [hotBodies][]byte
}

var vocabulary = []string{
	"page", "frame", "tmem", "guest", "swap", "evict", "refault", "target", "policy", "hypervisor",
	"put", "get", "flush", "pool", "object", "index", "ephemeral", "persistent", "sample", "interval",
	"memory", "pressure", "balloon", "cache", "clean", "dirty", "writeback", "reclaim", "zone", "node",
}

func newPageBodies(seed uint64) *pageBodies {
	rng := rand.New(rand.NewPCG(seed, 0x706167657321))
	b := &pageBodies{}
	textBody := func() []byte {
		var buf bytes.Buffer
		for buf.Len() < pageSize {
			buf.WriteString(vocabulary[rng.IntN(len(vocabulary))])
			buf.WriteByte(' ')
		}
		return buf.Bytes()[:pageSize]
	}
	for i := range b.text {
		b.text[i] = textBody()
	}
	for i := range b.hot {
		b.hot[i] = textBody()
	}
	for i := range b.random {
		p := make([]byte, pageSize)
		for j := 0; j < pageSize; j += 8 {
			binary.LittleEndian.PutUint64(p[j:], rng.Uint64())
		}
		b.random[i] = p
	}
	return b
}

// mix is a splitmix64 finalizer: the per-put hash that picks class and body.
func mix(key, seq uint32) uint64 {
	z := uint64(key)<<32 | uint64(seq)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (b *pageBodies) pick(key, seq uint32) (bodyClass, []byte) {
	h := mix(key, seq)
	switch h & 3 {
	case 0, 1:
		return classText, b.text[(h>>2)%poolBodies]
	case 2:
		return classDup, b.hot[(h>>2)%hotBodies]
	default:
		return classRandom, b.random[(h>>2)%poolBodies]
	}
}

// Append appends the body of put (key, seq) to dst.
func (b *pageBodies) Append(dst []byte, key, seq uint32) []byte {
	class, body := b.pick(key, seq)
	at := len(dst)
	dst = append(dst, body...)
	if class != classDup {
		binary.BigEndian.PutUint64(dst[at:], uint64(key))
		binary.BigEndian.PutUint64(dst[at+8:], uint64(seq))
	}
	return dst
}

// Matches reports whether page holds exactly the body of put (key, seq).
func (b *pageBodies) Matches(page []byte, key, seq uint32) bool {
	if len(page) != pageSize {
		return false
	}
	class, body := b.pick(key, seq)
	if class == classDup {
		return bytes.Equal(page, body)
	}
	return binary.BigEndian.Uint64(page) == uint64(key) &&
		binary.BigEndian.Uint64(page[8:]) == uint64(seq) &&
		bytes.Equal(page[stampBytes:], body[stampBytes:])
}
