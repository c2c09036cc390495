package sim

import "slices"

// pageBits sets the page size of the engine's job tables: 256 records. A
// jobState page (128 B records) is then exactly 32 KiB, and the JobSpec and
// JobOutcome pages round up to their allocator size classes by under 9%:
// 352 B of pages per job for 336 B of records. Smaller pages round worse,
// because the allocator puts an 8 B header in front of every object with
// pointers up to 32 KiB (a 64-record jobState page lands in the 9472 B
// class). An engine pays one page per table, 88 KiB, however few jobs it
// holds.
const (
	pageBits = 8
	pageLen  = 1 << pageBits
)

// table is an append-only sequence of records kept in fixed-size pages.
// Appending allocates a new page, whole, when the last one is full, so no
// record is ever copied or moved: a pointer into the table stays valid
// across any number of later appends, and the cost of an append does not
// grow with the records already stored.
type table[T any] struct {
	pages []*[pageLen]T
	n     int
}

// len returns the number of records.
func (t *table[T]) len() int { return t.n }

// push appends a zero record and returns its address.
func (t *table[T]) push() *T {
	if t.n&(pageLen-1) == 0 {
		t.pages = append(t.pages, new([pageLen]T))
	}
	r := &t.pages[t.n>>pageBits][t.n&(pageLen-1)]
	t.n++
	return r
}

// at returns the address of record i, which must be below len().
func (t *table[T]) at(i int) *T { return &t.pages[i>>pageBits][i&(pageLen-1)] }

// page returns the records of page p that are in use.
func (t *table[T]) page(p int) []T { return t.pages[p][:min(pageLen, t.n-p<<pageBits)] }

// appendTo appends every record, in order, to dst; with no records it
// returns dst unchanged, nil included.
func (t *table[T]) appendTo(dst []T) []T {
	dst = slices.Grow(dst, t.n)
	for p := range t.pages {
		dst = append(dst, t.page(p)...)
	}
	return dst
}
