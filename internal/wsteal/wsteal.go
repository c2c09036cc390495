// Package wsteal implements a distributed work-stealing task executor in
// the style of A-Steal (Agrawal, He, Leiserson; PPoPP 2007) and ABP (Arora,
// Blumofe, Plaxton), the decentralized alternatives the paper's §8 relates
// ABG to. Each allotted processor owns a deque of ready tasks; it pops work
// from the bottom of its own deque and, when empty, spends a time step
// attempting to steal from the top of a random victim's deque. When the
// allotment shrinks between quanta, abandoned deques are "mugged" —
// adopted by idle processors, again at a one-step cost.
//
// The executor implements job.Instance, so the same simulation engine,
// feedback policies and OS allocators drive it. Pairing it with the
// A-Greedy desire policy yields an A-Steal-like scheduler; pairing it with
// A-Control shows how the accuracy of the parallelism measurement degrades
// without B-Greedy's breadth-first order (the steal ablation in
// abg/internal/experiments).
//
// Modelling simplifications (documented per DESIGN.md): workers act in a
// fixed order within a step, so a task enabled earlier in a step is
// stealable later in the same step; a successful steal deposits the task in
// the thief's deque and execution starts the next step; steal victims are
// chosen uniformly among the other workers.
package wsteal

import (
	"abg/internal/dag"
	"abg/internal/job"
	"abg/internal/xrand"
)

// Run executes a finalized dag under randomized work stealing. It is
// single-use and implements job.Instance.
type Run struct {
	g         *dag.Graph
	rng       *xrand.RNG
	predsLeft []int32
	deques    [][]dag.NodeID // per-worker; bottom = end of slice
	// assigned holds a task a worker stole last step and will execute this
	// step. Stolen tasks are private to the thief — they cannot be
	// re-stolen, matching the take-and-execute semantics of real
	// work-stealing deques. (Without this, one serial task ping-pongs among
	// p−1 thieves and almost never executes.) −1 when empty.
	assigned []dag.NodeID
	orphans  [][]dag.NodeID // deques abandoned by a shrinking allotment
	done     int64

	steals int64 // steal attempts
	mugs   int64 // orphan-deque adoptions
}

// NewRun returns a work-stealing instance of g with the given RNG seed.
// All sources start on the first worker's deque; everyone else steals.
func NewRun(g *dag.Graph, seed uint64) *Run {
	r := &Run{
		g:         g,
		rng:       xrand.New(seed),
		predsLeft: make([]int32, g.NumNodes()),
	}
	var sources []dag.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		r.predsLeft[v] = int32(g.NumPreds(dag.NodeID(v)))
		if r.predsLeft[v] == 0 {
			sources = append(sources, dag.NodeID(v))
		}
	}
	r.deques = [][]dag.NodeID{sources}
	r.assigned = []dag.NodeID{-1}
	return r
}

// Done implements job.Instance.
func (r *Run) Done() bool { return r.done == r.g.Work() }

// Remaining implements job.Instance.
func (r *Run) Remaining() int64 { return r.g.Work() - r.done }

// TotalWork implements job.Instance.
func (r *Run) TotalWork() int64 { return r.g.Work() }

// CriticalPathLen implements job.Instance.
func (r *Run) CriticalPathLen() int { return r.g.CriticalPathLen() }

// LevelWidth implements job.Instance.
func (r *Run) LevelWidth(level int) int { return r.g.LevelWidth(level) }

// StealAttempts returns the number of steal attempts so far.
func (r *Run) StealAttempts() int64 { return r.steals }

// Mugs returns the number of orphan-deque adoptions.
func (r *Run) Mugs() int64 { return r.mugs }

// resize adapts the worker set to a new allotment. Growing adds empty
// deques; shrinking orphans the abandoned non-empty deques (including any
// privately assigned task) for mugging.
func (r *Run) resize(p int) {
	for len(r.deques) < p {
		r.deques = append(r.deques, nil)
		r.assigned = append(r.assigned, -1)
	}
	for len(r.deques) > p {
		i := len(r.deques) - 1
		last := r.deques[i]
		if r.assigned[i] >= 0 {
			last = append(last, r.assigned[i])
		}
		r.deques = r.deques[:i]
		r.assigned = r.assigned[:i]
		if len(last) > 0 {
			r.orphans = append(r.orphans, last)
		}
	}
}

// Step implements job.Instance. The order argument is ignored: scheduling
// order emerges from the deque discipline.
func (r *Run) Step(p int, _ job.Order, buf []job.LevelCount) (int, []job.LevelCount) {
	if p <= 0 || r.Done() {
		return 0, buf
	}
	r.resize(p)
	start := len(buf)
	completed := 0
	var counts [8]struct {
		level, count int
	}
	nCounts := 0
	record := func(level int) {
		for i := 0; i < nCounts; i++ {
			if counts[i].level == level {
				counts[i].count++
				return
			}
		}
		if nCounts < len(counts) {
			counts[nCounts].level = level
			counts[nCounts].count = 1
			nCounts++
			return
		}
		// Overflow (more than 8 distinct levels in one step): spill
		// directly to buf; merged below.
		buf = append(buf, job.LevelCount{Level: level, Count: 1})
	}
	for w := 0; w < p; w++ {
		// A task stolen last step executes now, ahead of the own deque.
		var v dag.NodeID = -1
		if r.assigned[w] >= 0 {
			v = r.assigned[w]
			r.assigned[w] = -1
		} else if dq := r.deques[w]; len(dq) > 0 {
			// Execute the bottom task of the own deque.
			v = dq[len(dq)-1]
			r.deques[w] = dq[:len(dq)-1]
		}
		if v >= 0 {
			completed++
			record(r.g.Level(v))
			r.g.EachSucc(v, func(child dag.NodeID) {
				r.predsLeft[child]--
				if r.predsLeft[child] == 0 {
					r.deques[w] = append(r.deques[w], child)
				}
			})
			continue
		}
		// Idle: adopt an orphaned deque if any (mugging), else steal.
		if n := len(r.orphans); n > 0 {
			r.deques[w] = r.orphans[n-1]
			r.orphans = r.orphans[:n-1]
			r.mugs++
			continue
		}
		if p > 1 {
			r.steals++
			victim := r.rng.Intn(p - 1)
			if victim >= w {
				victim++
			}
			vd := r.deques[victim]
			if len(vd) == 0 {
				continue
			}
			// Steal from the top (front); the task is now private to the
			// thief and executes next step.
			r.assigned[w] = vd[0]
			r.deques[victim] = vd[1:]
		}
	}
	r.done += int64(completed)
	for i := 0; i < nCounts; i++ {
		buf = append(buf, job.LevelCount{Level: counts[i].level, Count: counts[i].count})
	}
	mergeLevelCounts(buf[start:])
	return completed, buf
}

// mergeLevelCounts sorts the segment by level and merges duplicates in
// place is unnecessary — duplicates only arise on the >8-level spill path;
// consumers sum per level anyway, so sorting suffices for determinism.
func mergeLevelCounts(lcs []job.LevelCount) {
	for i := 1; i < len(lcs); i++ {
		for j := i; j > 0 && lcs[j].Level < lcs[j-1].Level; j-- {
			lcs[j], lcs[j-1] = lcs[j-1], lcs[j]
		}
	}
}

var _ job.Instance = (*Run)(nil)
