package alloc

// Allotter wraps a Multi allocator with reusable per-quantum buffers. The
// engine calls an allocator once per boundary; at large job counts a fresh
// Allot re-allocates an allotment slice (and, for DEQ, a candidate pool)
// every quantum, which is pure per-quantum garbage. An Allotter keeps those
// buffers across calls and runs the stateless built-in allocators' own
// bodies (deq, equalSplit) over them, falling back to the wrapped
// allocator's Allot for anything it does not recognise (checked, observed,
// or user-supplied allocators keep their semantics).
//
// The returned slice is owned by the Allotter and valid until the next
// Allot call; an Allotter is not safe for concurrent use. Outputs are
// bit-identical to the wrapped allocator's.
type Allotter struct {
	m    Multi
	out  []int
	pool []poolEntry
}

// NewAllotter returns a reusing wrapper around m.
func NewAllotter(m Multi) *Allotter { return &Allotter{m: m} }

// Name returns the wrapped allocator's name.
func (a *Allotter) Name() string { return a.m.Name() }

// Allot returns allotments for the requests, reusing internal buffers.
func (a *Allotter) Allot(requests []int, p int) []int {
	switch a.m.(type) {
	case DynamicEquiPartition:
		out := a.grow(len(requests))
		if cap(a.pool) < len(requests) {
			a.pool = make([]poolEntry, 0, len(requests))
		}
		deq(requests, p, out, a.pool)
		return out
	case EqualSplit:
		out := a.grow(len(requests))
		equalSplit(requests, p, out)
		return out
	default:
		return a.m.Allot(requests, p)
	}
}

// grow returns a zeroed allotment buffer of length n.
func (a *Allotter) grow(n int) []int {
	if cap(a.out) < n {
		a.out = make([]int, n)
	}
	a.out = a.out[:n]
	clear(a.out)
	return a.out
}
