package sim

import (
	"math/bits"
	"slices"
)

// pageBits sets the page size of the engine's job tables: 256 records. A
// jobState page (128 B records) is then exactly 32 KiB, and the JobSpec and
// JobOutcome pages round up to their allocator size classes by under 9%:
// 352 B of pages per job for 336 B of records. Smaller pages round worse,
// because the allocator puts an 8 B header in front of every object with
// pointers up to 32 KiB (a 64-record jobState page lands in the 9472 B
// class).
//
// The first page's worth of records is held in headBlocks smaller blocks
// instead — 16, 16, 32, 64 and 128 records, each allocated whole when the
// table reaches it — so an engine holding a handful of jobs pays about
// 6 KiB for its three tables rather than three 256-record pages (88 KiB).
// The head rounds worse than a page would, by at most one header per
// block, which only the first 256 jobs pay.
const (
	pageBits   = 8
	pageLen    = 1 << pageBits
	headBlocks = 5
)

// table is an append-only sequence of records kept in fixed-size blocks:
// the head blocks, then pages. Appending allocates a new block, whole,
// when the last one is full, so no record is ever copied or moved: a
// pointer into the table stays valid across any number of later appends,
// and the cost of an append does not grow with the records already stored.
type table[T any] struct {
	// head holds records [0, pageLen): block 0 records 0–15 and block
	// b ≥ 1 records [8<<b, 16<<b). Each block's length is a power of two
	// and its first record a multiple of it, so a record's offset in its
	// block is its index masked by the block's length less one.
	head [headBlocks][]T
	// pages[k] holds records [(k+1)·pageLen, (k+2)·pageLen).
	pages []*[pageLen]T
	n     int
}

// headBlock returns the head block that holds record i < pageLen.
func headBlock(i int) int { return max(bits.Len(uint(i))-4, 0) }

// len returns the number of records.
func (t *table[T]) len() int { return t.n }

// push appends a zero record and returns its address.
func (t *table[T]) push() *T {
	i := t.n
	switch {
	case i < pageLen:
		if b := headBlock(i); t.head[b] == nil {
			t.head[b] = make([]T, max(16, 8<<b))
		}
	case i&(pageLen-1) == 0:
		t.pages = append(t.pages, new([pageLen]T))
	}
	t.n++
	return t.at(i)
}

// at returns the address of record i, which must be below len().
func (t *table[T]) at(i int) *T {
	if i < pageLen {
		blk := t.head[headBlock(i)]
		return &blk[i&(len(blk)-1)]
	}
	return &t.pages[i>>pageBits-1][i&(pageLen-1)]
}

// appendTo appends every record, in order, to dst; with no records it
// returns dst unchanged, nil included.
func (t *table[T]) appendTo(dst []T) []T {
	dst = slices.Grow(dst, t.n)
	rest := t.n
	for _, blk := range t.head {
		k := min(len(blk), rest)
		dst = append(dst, blk[:k]...)
		rest -= k
	}
	for _, pg := range t.pages {
		dst = append(dst, pg[:min(pageLen, rest)]...)
		rest -= pageLen
	}
	return dst
}
