package job

import "math"

// Run executes a Profile step by step. It implements Instance.
//
// The representation exploits the level structure: per level it needs only
// the number of completed tasks. Chains within a parallel phase are
// symmetric, so without loss of generality completions are assigned to chains
// in index order; the number of ready tasks at a Chain level l is then
// completed(l−1) − completed(l), and at a Sync level it is the whole level
// once level l−1 finishes. Levels below the frontier are complete and levels
// past the head untouched, so the cursor is the frontier, its count, and a
// window of counts for the levels above it up to the head. Breadth-first
// steps never leave completions above the frontier (see StepsBreadthFirst),
// so the window is empty until depth-first steps fill it, and a
// breadth-first cursor is O(1) in memory. A step costs O(window + 1), and
// StepsBreadthFirst executes a whole quantum of breadth-first steps in
// O(segments touched), which is what makes the Figure 5/6 sweeps (hundreds
// of millions of simulated steps) tractable.
type Run struct {
	p        *Profile
	frontier int   // lowest incomplete level; the level count once done
	seg      int   // segment holding the frontier; len(p.segs) once done
	front    int   // tasks completed at the frontier level
	window   []int // completions at levels frontier+1, frontier+2, …: no trailing zero, nil when empty
	done     int64 // tasks completed so far
}

// NewRun returns a fresh executable instance of the profile.
func NewRun(p *Profile) *Run { return &Run{p: p} }

// Reset rewinds the run to the beginning for reuse.
func (r *Run) Reset() { *r = Run{p: r.p} }

// Done implements Instance.
func (r *Run) Done() bool { return r.done == r.p.work }

// Remaining implements Instance.
func (r *Run) Remaining() int64 { return r.p.work - r.done }

// TotalWork implements Instance.
func (r *Run) TotalWork() int64 { return r.p.work }

// CriticalPathLen implements Instance.
func (r *Run) CriticalPathLen() int { return r.p.CriticalPathLen() }

// LevelWidth implements Instance.
func (r *Run) LevelWidth(level int) int { return r.p.Level(level).Width }

// Profile returns the immutable description this run executes.
func (r *Run) Profile() *Profile { return r.p }

// CompletedAt returns how many tasks of the given level have completed.
func (r *Run) CompletedAt(level int) int {
	if level < r.frontier {
		return r.p.Level(level).Width
	}
	return r.at(level - r.frontier - 1)
}

// at returns the completions at level frontier+1+i, for i ≥ −1.
func (r *Run) at(i int) int {
	switch {
	case i < 0:
		return r.front
	case i < len(r.window):
		return r.window[i]
	default:
		return 0
	}
}

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
	segs := r.p.segs
	budget, total, tail := p, 0, 0
	prevOld := 0 // completed count of the previous level at step start
	for l, i, k := r.frontier, -1, r.seg; budget > 0 && k < len(segs); l, i = l+1, i+1 {
		var ready int
		old := r.at(i)
		switch {
		case i < 0:
			// Levels below the frontier finished in earlier steps, so
			// every remaining task here is ready regardless of kind.
			ready = segs[k].Width - old
		case segs[k].Kind == Chain:
			// Parents are the same-index tasks of level l−1; only those
			// that completed before this step (prevOld) count.
			ready = prevOld - old
		default:
			// Sync above the frontier: previous level was incomplete at
			// step start, so nothing is ready.
			ready = 0
		}
		take := min(ready, budget)
		if take > 0 {
			switch {
			case i < 0:
				r.front += take
			case i < len(r.window):
				r.window[i] += take
			default:
				// The level just past the window: finishStep places it
				// once the frontier has moved, so a step from an empty
				// window never allocates one.
				tail = take
			}
			budget -= take
			total += take
			buf = append(buf, LevelCount{Level: l, Count: take})
		}
		prevOld = old
		if old == 0 && take == 0 {
			// Nothing had started here before this step and nothing ran
			// now; no deeper level can hold ready tasks.
			break
		}
		if l+1 == segs[k].end {
			k++
		}
	}
	r.finishStep(total, tail)
	return total, buf
}

func (r *Run) stepDepthFirst(p int, buf []LevelCount) (int, []LevelCount) {
	segs, win := r.p.segs, r.window
	budget, total, tail := p, 0, 0
	// The deepest level that can hold ready tasks is one past the head
	// (children of already-completed head tasks), clamped to the profile;
	// i indexes the levels above the frontier as the window does.
	top := len(win)
	if top == 0 && r.front == 0 {
		top = -1 // nothing above the frontier has a completed parent
	}
	top = min(top, r.p.CriticalPathLen()-r.frontier-2)
	k := r.seg // the segment of the top level
	for r.frontier+1+top >= segs[k].end {
		k++
	}
	for i := top; budget > 0 && i >= 0; k-- {
		// Levels frontier+1+stop … frontier+1+i lie in segment k.
		stop := max(r.p.segStart(k)-r.frontier-1, 0)
		if segs[k].Kind != Chain {
			i = stop - 1 // a Sync level above the frontier is never ready
			continue
		}
		for ; budget > 0 && i >= stop; i-- {
			// Iterating downward means level i−1 still holds its
			// start-of-step count: children never enable parents, so
			// this is a faithful snapshot.
			parent, old := r.front, 0
			if i > 0 {
				parent = win[i-1]
			}
			if i < len(win) {
				old = win[i]
			}
			if take := min(parent-old, budget); take > 0 {
				if i < len(win) {
					win[i] += take
				} else {
					tail = take
				}
				budget -= take
				total += take
				buf = append(buf, LevelCount{Level: r.frontier + 1 + i, Count: take})
			}
		}
	}
	if take := min(segs[r.seg].Width-r.front, budget); take > 0 {
		r.front += take
		total += take
		buf = append(buf, LevelCount{Level: r.frontier, Count: take})
	}
	r.finishStep(total, tail)
	return total, buf
}

// finishStep counts a step's completions and moves the frontier past the
// levels it completed, shifting the window down behind it; tail holds the
// completions of the level just past the window, if the step reached it.
func (r *Run) finishStep(completed, tail int) {
	r.done += int64(completed)
	segs := r.p.segs
	for r.seg < len(segs) && r.front == segs[r.seg].Width {
		r.frontier++
		if r.frontier == segs[r.seg].end {
			r.seg++
		}
		if len(r.window) > 0 {
			r.front, r.window = r.window[0], r.window[1:]
		} else {
			r.front, tail = tail, 0
		}
	}
	if tail > 0 {
		r.window = append(r.window, tail)
	}
	if len(r.window) == 0 {
		r.window = nil
	}
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
// (fewer if the run finishes first), in O(segments touched) rather than
// O(n · active window).
//
// It needs a canonical cursor, an empty window: every level below the
// frontier is complete and none above it has started. From there the work
// is a stream of runs, each a Sync level followed by its Chain levels, all
// of one width w (NewProfile enforces that). Every step takes min(p, w)
// tasks in level order — what is left of the frontier level, then as many
// children of that level's earlier completions — and no step crosses into
// the next run, whose Sync level is never ready mid-step. So a run's
// t remaining tasks take ⌈t / min(p, w)⌉ steps, every one partial when
// w < p, else only the one that empties the run short of p tasks; there
// are no idle steps, and breadth-first steps keep the cursor canonical. A
// run is at most two segments (a Sync level and the Chain segment after
// it), and a Sync segment's other levels are runs of height one that take
// ⌈w / min(p, w)⌉ steps each, so whole runs and whole stretches of a Sync
// segment are skipped with arithmetic.
//
// CPL keeps the step loop's bits. Only the first level touched can have
// started before this quantum and only the last can stay partial, so every
// level between adds exactly 1.0 (w/w), and addOnes sums those in order.
//
// It reports false and executes nothing when p ≤ 0 or the cursor is not
// canonical (depth-first steps can leave it so); Step is the fallback.
func (r *Run) StepsBreadthFirst(p, n int) (StepSummary, bool) {
	var s StepSummary
	if p <= 0 || r.window != nil {
		return s, false
	}
	segs := r.p.segs
	l, k, c := r.frontier, r.seg, r.front // the cursor: level, its segment, its count
	for n > 0 && k < len(segs) {
		w := segs[k].Width
		m := min(p, w) // tasks per step inside a run
		extended := k+1 < len(segs) && segs[k+1].Kind == Chain
		if segs[k].Kind == Sync && c == 0 {
			// Skip the segment's whole height-one runs: all its levels but
			// a last one that the next (Chain) segment extends.
			runs := segs[k].end - l
			if extended {
				runs--
			}
			per := ceilDiv(w, m) // steps per level
			if j := min(runs, n/per); j > 0 {
				s.Steps += j * per
				s.Work += int64(j) * int64(w)
				if m < p {
					s.Partial += j * per
				} else if w%m != 0 {
					s.Partial += j
				}
				n -= j * per
				if l += j; l == segs[k].end {
					k++
					continue
				}
			}
		}
		// One run: level l (c of its tasks done) through the end of its
		// segment, and through the Chain segment that extends a Sync one.
		end := segs[k].end
		if segs[k].Kind == Sync {
			end = l + 1
			if extended && end == segs[k].end {
				end = segs[k+1].end
			}
		}
		left := (end-l)*w - c
		need := ceilDiv(left, m)
		if need > n {
			// The steps run out inside the run, each taking m tasks.
			take := n * m
			s.Steps += n
			s.Work += int64(take)
			if m < p {
				s.Partial += n
			}
			c += take
			l, c = l+c/w, c%w
			for l >= segs[k].end {
				k++
			}
			break
		}
		s.Steps += need
		s.Work += int64(left)
		if m < p {
			s.Partial += need
		} else if left%m != 0 {
			s.Partial++ // the step that emptied the run short of m tasks
		}
		n -= need
		l, c = end, 0
		for k < len(segs) && l >= segs[k].end {
			k++
		}
	}
	if s.Work > 0 {
		if l == r.frontier {
			s.Levels = 1
			s.CPL = float64(c-r.front) / float64(segs[k].Width)
		} else {
			w0 := segs[r.seg].Width
			s.Levels = l - r.frontier
			s.CPL = addOnes(float64(w0-r.front)/float64(w0), l-r.frontier-1)
			if c > 0 {
				s.Levels++
				s.CPL += float64(c) / float64(segs[k].Width)
			}
		}
	}
	r.frontier, r.seg, r.front = l, k, c
	r.done += s.Work
	return s, true
}

// addOnes returns x after k additions of 1.0, made one at a time in float
// arithmetic, using O(log(x+k)) additions. For 1 ≤ x < 2^53, x + j is exact
// for every integer j that keeps the sum inside x's binade [2^e, 2^(e+1)),
// because 1 is a multiple of x's ulp there; so one addition of j matches j
// additions of 1.0, and only an addition that crosses a power of two can
// round, which is made singly. An integral x (a quantum that began on a
// level boundary) never rounds below 2^53. From 2^53 on, adding 1.0 stops
// moving x within two additions.
func addOnes(x float64, k int) float64 {
	if x == math.Trunc(x) && x >= 0 && x <= 1<<53 && k <= 1<<53-int(x) {
		return x + float64(k)
	}
	for k > 0 {
		if x >= 1 && x < 1<<53 {
			// The power of two above x, and the gap to it: exact,
			// since x ≥ half of it (Sterbenz).
			gap := math.Float64frombits((math.Float64bits(x)>>52+1)<<52) - x
			j := int(gap) // the largest j with x + j < x + gap
			if float64(j) == gap {
				j--
			}
			if j = min(j, k); j > 0 {
				x += float64(j)
				k -= j
				continue
			}
		}
		y := x + 1
		if y == x {
			break
		}
		x, k = y, k-1
	}
	return x
}

// ceilDiv returns ⌈a/b⌉ for a ≥ 0 and b > 0, without overflow.
func ceilDiv(a, b int) int {
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}

var _ Instance = (*Run)(nil)
