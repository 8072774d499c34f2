// Package tmem implements Transcendent Memory: a hypervisor-side key–value
// store for guest pages with synchronous put/get/flush operations, per-VM
// capacity accounting, and target enforcement as described by Algorithm 1
// of the SmarTmem paper (and, originally, by Magenheimer et al., "Transcendent
// Memory and Linux", OLS 2009).
//
// Every tmem page is identified by a three-element tuple: the pool
// identifier, a 64-bit object identifier and a 32-bit page index — the
// "key" (paper §II-B). Pools are created per VM and are either persistent
// (frontswap: pages must survive until flushed) or ephemeral (cleancache:
// the hypervisor may drop pages at any time, e.g. under pressure).
package tmem

import (
	"encoding/binary"
	"fmt"
)

// PoolID identifies a tmem pool within the node. Pool identifiers are
// assigned by the hypervisor at pool-creation time and are never reused.
type PoolID int32

// InvalidPool is returned by NewPool on failure.
const InvalidPool PoolID = -1

// ObjectID is the 64-bit object identifier a guest kernel derives from a
// page's address (for frontswap: the swap type; for cleancache: the inode).
type ObjectID uint64

// PageIndex is the 32-bit page offset within an object (for frontswap: the
// swap slot; for cleancache: the page's index in the file).
type PageIndex uint32

// Key is the full three-element tuple identifying one tmem page.
type Key struct {
	Pool   PoolID
	Object ObjectID
	Index  PageIndex
}

func (k Key) String() string {
	return fmt.Sprintf("tmem:%d/%d/%d", k.Pool, k.Object, k.Index)
}

// hash returns a well-mixed 64-bit hash of the key's run — pool, object and
// Index>>runShift, the consecutive pages one index leaf holds (see
// RunIndex). Its lower half picks the key's lock stripe and its upper half
// is the run's tag in a RunIndex table, so a whole run lives in one stripe
// while consecutive runs of an object still spread across stripes.
func (k Key) hash() uint64 {
	x := uint64(uint32(k.Pool))<<32 | uint64(k.Index>>runShift)
	x ^= mix64(uint64(k.Object))
	return mix64(x)
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on uint64.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keyWireSize is the encoded size of a Key: 4 + 8 + 4 bytes.
const keyWireSize = 16

// AppendWire appends the big-endian wire encoding of k to b. The encoding
// is used by the socket transport and the kvd daemon protocol.
func (k Key) AppendWire(b []byte) []byte {
	var buf [keyWireSize]byte
	binary.BigEndian.PutUint32(buf[0:4], uint32(k.Pool))
	binary.BigEndian.PutUint64(buf[4:12], uint64(k.Object))
	binary.BigEndian.PutUint32(buf[12:16], uint32(k.Index))
	return append(b, buf[:]...)
}

// KeyFromWire decodes a Key previously encoded with AppendWire.
func KeyFromWire(b []byte) (Key, error) {
	if len(b) < keyWireSize {
		return Key{}, fmt.Errorf("tmem: key encoding too short: %d bytes", len(b))
	}
	return Key{
		Pool:   PoolID(binary.BigEndian.Uint32(b[0:4])),
		Object: ObjectID(binary.BigEndian.Uint64(b[4:12])),
		Index:  PageIndex(binary.BigEndian.Uint32(b[12:16])),
	}, nil
}

// PoolKind distinguishes the two tmem modes of operation (paper §I, §II-B).
type PoolKind int

const (
	// Persistent pools back frontswap: a successful put guarantees the
	// page can be retrieved until it is flushed.
	Persistent PoolKind = iota
	// Ephemeral pools back cleancache: the hypervisor may silently drop
	// pages, so a get may miss even after a successful put.
	Ephemeral
)

func (k PoolKind) String() string {
	switch k {
	case Persistent:
		return "persistent"
	case Ephemeral:
		return "ephemeral"
	default:
		return fmt.Sprintf("PoolKind(%d)", int(k))
	}
}

// Status is the result of a tmem operation, mirroring the hypervisor's
// return values in Table I of the paper.
type Status int

const (
	// STmem indicates the operation succeeded (paper: S_TMEM).
	STmem Status = 0
	// ETmem indicates a put (or other op) cannot succeed — over target or
	// no free tmem (paper: E_TMEM).
	ETmem Status = -1
	// EInval indicates a malformed request (unknown pool, wrong VM).
	EInval Status = -2
)

func (s Status) String() string {
	switch s {
	case STmem:
		return "S_TMEM"
	case ETmem:
		return "E_TMEM"
	case EInval:
		return "E_INVAL"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// VMID identifies a virtual machine within the node (Xen domain id).
type VMID int
