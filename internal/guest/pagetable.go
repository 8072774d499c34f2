package guest

// The anonymous page table is a two-level dense array rather than a hash
// map: every workload addresses its memory as page offsets from zero, so a
// page's slot is found with a shift, a mask and two loads. Slots live inside
// fixed-size chunks that are allocated on first touch and never move, so the
// resident LRU can link slots by pointer, and a first touch inside an
// existing chunk allocates nothing.

const (
	chunkShift = 10
	chunkPages = 1 << chunkShift // slots per chunk (48 KiB of bookkeeping)
	chunkMask  = chunkPages - 1
)

// pageTable maps PageID to its gpage slot. The directory holds one pointer
// per chunk of address space below the highest page ever touched, so the
// address space is expected to be dense; chunks are kept until the kernel
// is dropped.
type pageTable struct {
	dir []*[chunkPages]gpage
}

// lookup returns the slot of page, or nil when the page does not exist
// (never touched, or freed).
func (t *pageTable) lookup(page PageID) *gpage {
	ci := page >> chunkShift
	if ci >= PageID(len(t.dir)) || t.dir[ci] == nil {
		return nil
	}
	if g := &t.dir[ci][page&chunkMask]; g.present {
		return g
	}
	return nil
}

// insert creates page, which must not exist, and returns its zeroed slot.
func (t *pageTable) insert(page PageID) *gpage {
	ci := page >> chunkShift
	for ci >= PageID(len(t.dir)) {
		t.dir = append(t.dir, nil)
	}
	if t.dir[ci] == nil {
		t.dir[ci] = new([chunkPages]gpage)
	}
	g := &t.dir[ci][page&chunkMask]
	*g = gpage{present: true, anon: page}
	return g
}

// remove deletes the page in slot g, which must be off the LRU.
func (t *pageTable) remove(g *gpage) { g.present = false }

// each calls fn for every existing page, in address order.
func (t *pageTable) each(fn func(g *gpage) error) error {
	for _, c := range t.dir {
		if c == nil {
			continue
		}
		for i := range c {
			if c[i].present {
				if err := fn(&c[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
