// Package mem provides the page-level units shared by the tmem store, the
// guest kernel model and the hypervisor node: page and byte counts and the
// conversions between them.
//
// Sizes are expressed in Pages wherever policy logic is involved, because
// the paper's algorithms (and Xen's tmem) account purely in pages; bytes
// appear only at configuration boundaries.
package mem

import "fmt"

// Pages is a count of memory pages.
type Pages int64

// Bytes is a byte count.
type Bytes int64

// Common byte sizes.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
)

// PagesIn converts a byte size to whole pages of the given page size,
// rounding up. Panics if pageSize is not a positive power of two.
func PagesIn(size Bytes, pageSize Bytes) Pages {
	checkPageSize(pageSize)
	if size <= 0 {
		return 0
	}
	return Pages((size + pageSize - 1) / pageSize)
}

// BytesIn converts a page count back to bytes.
func BytesIn(p Pages, pageSize Bytes) Bytes {
	checkPageSize(pageSize)
	return Bytes(p) * pageSize
}

func checkPageSize(ps Bytes) {
	if ps <= 0 || ps&(ps-1) != 0 {
		panic(fmt.Sprintf("mem: page size %d is not a positive power of two", ps))
	}
}

// String renders a byte count in a human-friendly unit.
func (b Bytes) String() string {
	switch {
	case b >= GiB && b%GiB == 0:
		return fmt.Sprintf("%dGiB", b/GiB)
	case b >= MiB && b%MiB == 0:
		return fmt.Sprintf("%dMiB", b/MiB)
	case b >= KiB && b%KiB == 0:
		return fmt.Sprintf("%dKiB", b/KiB)
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}
