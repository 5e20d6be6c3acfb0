package data

// Chunk sizes, in items: a slab that does not know how many items are coming
// starts small, so a three-row result does not pay for a batch, and doubles
// up to the executor's batch size.
const (
	slabMinItems = 16
	slabMaxItems = 1024
)

// Slab hands out items — short []T slices such as a row's cells or a group's
// aggregate states — carved from shared chunks, so creating n items costs
// about n/1024 allocations instead of n. The zero value is ready to use.
// Every item's capacity is capped at its length: an append on one item
// reallocates instead of writing into its neighbour, so slab items are as
// independent as slices made one by one. A chunk is never reused once handed
// out; it is freed by the garbage collector when the last item carved from it
// dies — which also means one surviving item keeps its whole chunk alive.
// A Slab is not safe for concurrent use.
type Slab[T any] struct {
	chunk  []T
	off    int // chunk[off:] is unused
	next   int // items in the next chunk when expect is 0
	expect int // items still announced by Expect
}

// RowSlab is the slab every operator that creates rows carves them from.
type RowSlab = Slab[Value]

// Expect announces that about items more items will be asked for, so chunks
// are sized to the count (at most slabMaxItems items each) instead of growing
// geometrically. Nothing is allocated until the next New, but that New
// allocates min(items, slabMaxItems) whole items at once: a caller that
// announces an upper bound and then asks for only a few pays for — and its
// survivors pin — up to one full chunk.
func (s *Slab[T]) Expect(items int) { s.expect = items }

// New returns a zeroed item of length and capacity n.
func (s *Slab[T]) New(n int) []T {
	if n == 0 {
		return []T{}
	}
	if n > len(s.chunk)-s.off {
		items := min(s.expect, slabMaxItems)
		if items > 0 {
			s.expect -= items
		} else {
			items = max(s.next, slabMinItems)
			s.next = min(2*items, slabMaxItems)
		}
		s.chunk, s.off = make([]T, items*n), 0
	}
	r := s.chunk[s.off : s.off+n : s.off+n]
	s.off += n
	return r
}
