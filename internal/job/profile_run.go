package job

import (
	"math"
	"math/bits"
)

// Run executes a Profile step by step. It implements Instance.
//
// The representation exploits the level structure: per level it tracks only
// the number of completed tasks. Chains within a parallel phase are
// symmetric, so without loss of generality completions are assigned to chains
// in index order; the number of ready tasks at a Chain level l is then
// completed(l−1) − completed(l), and at a Sync level it is the whole level
// once level l−1 finishes. One step costs O(active window) — the span of
// levels with partial progress — and StepsBreadthFirst executes a whole
// quantum of breadth-first steps in O(levels touched), which is what makes
// the Figure 5/6 sweeps (hundreds of millions of simulated steps) tractable.
type Run struct {
	p         *Profile
	completed []int
	frontier  int   // lowest incomplete level
	head      int   // highest level with any completions (valid if done>0)
	done      int64 // tasks completed so far
}

// NewRun returns a fresh executable instance of the profile.
func NewRun(p *Profile) *Run {
	return &Run{
		p:         p,
		completed: make([]int, len(p.levels)),
		head:      -1,
	}
}

// Reset rewinds the run to the beginning for reuse.
func (r *Run) Reset() {
	for i := range r.completed {
		r.completed[i] = 0
	}
	r.frontier = 0
	r.head = -1
	r.done = 0
}

// Done implements Instance.
func (r *Run) Done() bool { return r.done == r.p.work }

// Remaining implements Instance.
func (r *Run) Remaining() int64 { return r.p.work - r.done }

// TotalWork implements Instance.
func (r *Run) TotalWork() int64 { return r.p.work }

// CriticalPathLen implements Instance.
func (r *Run) CriticalPathLen() int { return len(r.p.levels) }

// LevelWidth implements Instance.
func (r *Run) LevelWidth(level int) int { return r.p.levels[level].Width }

// Profile returns the immutable description this run executes.
func (r *Run) Profile() *Profile { return r.p }

// CompletedAt returns how many tasks of the given level have completed.
func (r *Run) CompletedAt(level int) int { return r.completed[level] }

// Step implements Instance. FIFO degenerates to BreadthFirst for profile
// jobs: tasks become ready in level order, so FIFO picks lowest levels first
// anyway (exact tie-breaking within a level is unobservable here because
// chains are symmetric).
func (r *Run) Step(p int, order Order, buf []LevelCount) (int, []LevelCount) {
	if p <= 0 || r.Done() {
		return 0, buf
	}
	switch order {
	case DepthFirst:
		return r.stepDepthFirst(p, buf)
	default:
		return r.stepBreadthFirst(p, buf)
	}
}

func (r *Run) stepBreadthFirst(p int, buf []LevelCount) (int, []LevelCount) {
	levels := r.p.levels
	budget := p
	total := 0
	prevOld := 0 // completed count of the previous level at step start
	for l := r.frontier; budget > 0 && l < len(levels); l++ {
		var ready int
		switch {
		case l == r.frontier:
			// Levels below the frontier finished in earlier steps, so
			// every remaining task here is ready regardless of kind.
			ready = levels[l].Width - r.completed[l]
		case levels[l].Kind == Chain:
			// Parents are the same-index tasks of level l−1; only those
			// that completed before this step (prevOld) count.
			ready = prevOld - r.completed[l]
		default:
			// Sync above the frontier: previous level was incomplete at
			// step start, so nothing is ready.
			ready = 0
		}
		take := ready
		if take > budget {
			take = budget
		}
		old := r.completed[l]
		if take > 0 {
			r.completed[l] = old + take
			budget -= take
			total += take
			buf = append(buf, LevelCount{Level: l, Count: take})
			if l > r.head {
				r.head = l
			}
		}
		prevOld = old
		if old == 0 && take == 0 {
			// Nothing had started here before this step and nothing ran
			// now; no deeper level can hold ready tasks.
			break
		}
	}
	r.finishStep(total)
	return total, buf
}

func (r *Run) stepDepthFirst(p int, buf []LevelCount) (int, []LevelCount) {
	levels := r.p.levels
	budget := p
	total := 0
	// The deepest level that can hold ready tasks is one past the head
	// (children of already-completed head tasks), clamped to the profile.
	top := r.head + 1
	if top >= len(levels) {
		top = len(levels) - 1
	}
	if top < r.frontier {
		top = r.frontier
	}
	for l := top; budget > 0 && l >= r.frontier; l-- {
		var ready int
		switch {
		case l == r.frontier:
			ready = levels[l].Width - r.completed[l]
		case levels[l].Kind == Chain:
			// Iterating downward means completed[l−1] is still its
			// start-of-step value: children never enable parents, so this
			// is a faithful snapshot.
			ready = r.completed[l-1] - r.completed[l]
		default:
			ready = 0
		}
		take := ready
		if take > budget {
			take = budget
		}
		if take > 0 {
			r.completed[l] += take
			budget -= take
			total += take
			buf = append(buf, LevelCount{Level: l, Count: take})
			if l > r.head {
				r.head = l
			}
		}
	}
	r.finishStep(total)
	return total, buf
}

// StepSummary is what StepsBreadthFirst measured over its steps.
type StepSummary struct {
	Steps   int   // steps executed; fewer than asked only if the run finished
	Partial int   // steps that completed fewer than p tasks
	Work    int64 // tasks completed
	Levels  int   // distinct levels with at least one completion
	// CPL sums completions(l)/width(l) over those levels in ascending level
	// order, the fractional critical-path length of paper §2.
	CPL float64
}

// StepsBreadthFirst executes up to n breadth-first steps with p processors,
// leaving exactly the cursor that n calls of Step(p, BreadthFirst, ·) would
// (fewer if the run finishes first), in O(levels touched) rather than
// O(n · active window).
//
// It needs a canonical cursor, head ≤ frontier: every level below the
// frontier is complete and none above it has started. From there the work
// is a stream of runs, each a Sync level followed by its Chain levels, all
// of one width w (NewProfile enforces that). Every step takes min(p, w)
// tasks in level order — what is left of the frontier level, then as many
// children of that level's earlier completions — and no step crosses into
// the next run, whose Sync level is never ready mid-step. So a run's
// segment of t tasks takes ⌈t / min(p, w)⌉ steps, every one partial when
// w < p, else only the one that empties the run short of p tasks; there
// are no idle steps. Breadth-first steps keep the cursor canonical.
//
// It reports false and executes nothing when p ≤ 0 or the cursor is not
// canonical (depth-first steps can leave it so); Step is the fallback.
func (r *Run) StepsBreadthFirst(p, n int) (StepSummary, bool) {
	var s StepSummary
	if p <= 0 || r.head > r.frontier {
		return s, false
	}
	levels, completed := r.p.levels, r.completed
	l, head := r.frontier, r.head
	cpl := 0.0
	for n > 0 && l < len(levels) {
		// One run segment, starting at level l with a fresh step. The
		// walk touches levels in ascending order, once each, so adding
		// each level's fraction here repeats the step loop's summation.
		w := levels[l].Width
		m := min(p, w)         // tasks per step inside the run
		budget := satMul(n, m) // tasks n steps could take; must not wrap
		left := budget
		for left > 0 {
			c := completed[l]
			take := min(w-c, left)
			completed[l] = c + take
			left -= take
			head = l
			if take == w {
				cpl++ // w/w is exactly 1, as the per-level division gives
			} else {
				cpl += float64(take) / float64(w)
			}
			if c+take < w {
				break // the steps ran out inside this level
			}
			l++
			if l == len(levels) || levels[l].Kind == Sync {
				break // the run is done
			}
		}
		taken := budget - left
		steps, short := taken/m, taken%m
		if short != 0 {
			steps++ // the step that emptied the run short of m tasks
		}
		s.Steps += steps
		s.Work += int64(taken)
		if m < p {
			s.Partial += steps
		} else if short != 0 {
			s.Partial++
		}
		n -= steps
	}
	if s.Work > 0 {
		s.Levels = head - r.frontier + 1 // the walk's levels are contiguous
	}
	s.CPL = cpl
	r.frontier, r.head = l, head
	r.done += s.Work
	return s, true
}

// satMul returns a·b for a, b ≥ 0, saturated at the largest int.
func satMul(a, b int) int {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt {
		return math.MaxInt
	}
	return int(lo)
}

func (r *Run) finishStep(completed int) {
	r.done += int64(completed)
	levels := r.p.levels
	for r.frontier < len(levels) && r.completed[r.frontier] == levels[r.frontier].Width {
		r.frontier++
	}
}

var _ Instance = (*Run)(nil)
