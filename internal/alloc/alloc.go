// Package alloc implements the system-level OS allocators of the two-level
// scheduling framework. All allocators here are *conservative* (they never
// allot a job more processors than it requested, §3). The multiprogrammed
// allocator used in the paper's Figure 6 is dynamic equi-partitioning, which
// is *fair* (equal shares unless a job asks for less) and *non-reserving*
// (no processor idles while some job wants more) — the two properties §5.1
// requires for the makespan and response-time bounds.
package alloc

import "fmt"

// Single decides the allotment for one job running alone: the job requests
// `request` processors for quantum q and receives min(request, available).
// Implementations differ in how many processors are available each quantum,
// which is how trim analysis's adversarial allocator is expressed.
type Single interface {
	// Grant returns the allotment for quantum q (1-based) given the job's
	// integer request.
	Grant(q int, request int) int
	// Name identifies the allocator.
	Name() string
}

// Unconstrained is a Single allocator with all P processors available every
// quantum — the paper's first simulation setup, where every request is
// granted (up to the machine size).
type Unconstrained struct {
	P int
}

// NewUnconstrained returns an Unconstrained allocator over P processors.
func NewUnconstrained(p int) Unconstrained {
	if p < 1 {
		panic("alloc: machine needs at least one processor")
	}
	return Unconstrained{P: p}
}

// Grant implements Single.
func (u Unconstrained) Grant(_ int, request int) int {
	if request < 0 {
		request = 0
	}
	if request > u.P {
		return u.P
	}
	return request
}

// Name implements Single.
func (u Unconstrained) Name() string { return fmt.Sprintf("unconstrained(P=%d)", u.P) }

// AvailabilityTrace is a Single allocator whose per-quantum availability
// p(q) is an arbitrary function — including an adversarial one. The grant is
// min(request, p(q)) with p(q) clamped to [1, P] (the paper's fair,
// non-reserving setting guarantees every job at least one processor while
// |J| ≤ P).
type AvailabilityTrace struct {
	P     int
	Avail func(q int) int
	Label string
}

// NewAvailabilityTrace returns an availability-driven allocator.
func NewAvailabilityTrace(p int, avail func(q int) int, label string) AvailabilityTrace {
	if p < 1 {
		panic("alloc: machine needs at least one processor")
	}
	if avail == nil {
		panic("alloc: nil availability function")
	}
	return AvailabilityTrace{P: p, Avail: avail, Label: label}
}

// Grant implements Single.
func (a AvailabilityTrace) Grant(q int, request int) int {
	avail := a.Avail(q)
	if avail < 1 {
		avail = 1
	}
	if avail > a.P {
		avail = a.P
	}
	if request < 0 {
		request = 0
	}
	if request < avail {
		return request
	}
	return avail
}

// Name implements Single.
func (a AvailabilityTrace) Name() string {
	if a.Label != "" {
		return a.Label
	}
	return fmt.Sprintf("availability(P=%d)", a.P)
}

// Multi decides allotments for a set of concurrently active jobs.
type Multi interface {
	// Allot maps integer requests to allotments with Σ a_i ≤ P and
	// a_i ≤ max(requests[i], 0) for every i.
	Allot(requests []int, p int) []int
	// Name identifies the allocator.
	Name() string
}

// DynamicEquiPartition implements the fair, non-reserving, conservative
// dynamic equi-partitioning allocator of McCann, Vaswani and Zahorjan —
// the allocator the paper couples both schedulers with in §7.
//
// Algorithm: repeatedly compute the equal share of the remaining processors
// over the still-unsatisfied jobs; any job requesting no more than the share
// receives its full request and leaves the pool. When no such job remains,
// the remaining processors are split equally among the remaining jobs, with
// the indivisible remainder handed out one processor each in job order
// (deterministic; the order rotates with the quantum index upstream if
// desired).
type DynamicEquiPartition struct{}

// Allot implements Multi.
func (DynamicEquiPartition) Allot(requests []int, p int) []int {
	out := make([]int, len(requests))
	deq(requests, p, out, make([]poolEntry, 0, len(requests)))
	return out
}

type poolEntry struct{ idx, want int }

// deq is DynamicEquiPartition's algorithm over caller-supplied buffers: it
// writes the allotments into out, which must be zeroed and as long as
// requests, and keeps its candidate pool in pool's backing array (no
// allocation when cap(pool) ≥ len(requests)).
func deq(requests []int, p int, out []int, pool []poolEntry) {
	if len(requests) == 0 || p <= 0 {
		return
	}
	pool = pool[:0]
	for i, r := range requests {
		if r > 0 {
			pool = append(pool, poolEntry{i, r})
		}
	}
	remaining := p
	for len(pool) > 0 && remaining > 0 {
		share := remaining / len(pool)
		if share == 0 {
			// Fewer processors than jobs: hand out one each until the pool
			// or the processors run out (jobs beyond that get zero).
			for _, j := range pool {
				if remaining == 0 {
					break
				}
				out[j.idx] = 1
				remaining--
			}
			return
		}
		moved := false
		next := pool[:0]
		for _, j := range pool {
			if j.want <= share {
				out[j.idx] = j.want
				remaining -= j.want
				moved = true
			} else {
				next = append(next, j)
			}
		}
		pool = next
		if !moved {
			// Everyone wants more than the share: equal split + remainder.
			share = remaining / len(pool)
			extra := remaining - share*len(pool)
			for k, j := range pool {
				out[j.idx] = share
				if k < extra {
					out[j.idx]++
				}
			}
			return
		}
	}
}

// Name implements Multi.
func (DynamicEquiPartition) Name() string { return "dynamic-equi-partitioning" }

// EqualSplit is the naive fair allocator that always hands each active job
// an equal share (capped by its request) without redistributing leftovers.
// It is fair but *reserving* — processors can idle while jobs want more —
// and serves as the contrast showing why DEQ's redistribution matters.
type EqualSplit struct{}

// Allot implements Multi.
func (EqualSplit) Allot(requests []int, p int) []int {
	out := make([]int, len(requests))
	equalSplit(requests, p, out)
	return out
}

// equalSplit is EqualSplit's algorithm writing into out, which must be
// zeroed and as long as requests.
func equalSplit(requests []int, p int, out []int) {
	if len(requests) == 0 || p <= 0 {
		return
	}
	active := 0
	for _, r := range requests {
		if r > 0 {
			active++
		}
	}
	if active == 0 {
		return
	}
	share := p / active
	extra := p - share*active
	k := 0
	for i, r := range requests {
		if r <= 0 {
			continue
		}
		s := share
		if k < extra {
			s++
		}
		k++
		if s > r {
			s = r
		}
		out[i] = s
	}
}

// Name implements Multi.
func (EqualSplit) Name() string { return "equal-split" }
