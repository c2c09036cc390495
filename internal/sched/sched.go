// Package sched implements the user-level task schedulers of the paper:
// B-Greedy (greedy with breadth-first priority, §2) and plain greedy, plus
// the per-quantum measurement both rely on.
//
// Within a scheduling quantum the task scheduler executes the job step by
// step with the quantum's allotment and collects:
//
//	T1(q)  — quantum work: tasks completed in the quantum;
//	T∞(q)  — quantum critical-path length: the number of levels the job
//	         advanced, where a partially completed level contributes the
//	         fraction (tasks of that level completed in q) / (level width);
//	A(q)   — quantum average parallelism T1(q)/T∞(q).
//
// The fractional rule reproduces the paper's Figure 2 example exactly
// (T1(q)=12, T∞(q)=0.8+1+0.6=2.4, A(q)=5).
package sched

import (
	"fmt"

	"abg/internal/job"
)

// Scheduler is a task scheduler: an execution order plus a name. The order
// is what distinguishes B-Greedy (breadth-first) from a plain greedy
// scheduler; both execute min(allotment, #ready) tasks per step.
type Scheduler struct {
	name  string
	order job.Order
}

// BGreedy returns the breadth-first greedy scheduler of the paper.
func BGreedy() Scheduler { return Scheduler{name: "B-Greedy", order: job.BreadthFirst} }

// Greedy returns a plain greedy scheduler executing ready tasks in FIFO
// order, the task scheduler underneath A-Greedy.
func Greedy() Scheduler { return Scheduler{name: "Greedy", order: job.FIFO} }

// DepthGreedy returns a greedy scheduler that prioritises the deepest ready
// tasks; the adversarial ordering used by the execution-order ablation.
func DepthGreedy() Scheduler { return Scheduler{name: "DepthGreedy", order: job.DepthFirst} }

// Name returns the scheduler's display name.
func (s Scheduler) Name() string { return s.name }

// Order returns the task selection order the scheduler uses.
func (s Scheduler) Order() job.Order { return s.order }

// QuantumStats records what happened to one job during one quantum. All the
// feedback policies in abg/internal/feedback decide from this alone.
type QuantumStats struct {
	Index     int     // quantum number, 1-based
	Start     int64   // absolute step at which the quantum began (set by the engine)
	Request   float64 // d(q), the request the policy issued
	Allotment int     // a(q) granted by the OS allocator
	Length    int     // quantum length L in steps
	Steps     int     // steps actually executed (< Length only on completion)
	Work      int64   // T1(q)
	CPL       float64 // T∞(q), fractional
	IdleSteps int     // steps on which no task completed
	// PartialSteps counts steps on which some but fewer than a(q) tasks
	// completed — the "incomplete steps" of the classical greedy argument.
	PartialSteps int
	// LevelsTouched counts distinct levels with at least one completion in
	// the quantum. The integer (Graham-form) greedy bound
	// L ≤ T1(q)/a(q) + LevelsTouched(q) holds for every full quantum of any
	// dag, whereas the paper's fractional α(q)+β(q) ≥ 1 (Inequality 5) is
	// exact only on the fork-join job family it simulates.
	LevelsTouched int
	Deprived      bool // a(q) < request (after integer rounding)
	Completed     bool // job finished during this quantum
}

// Full reports whether the quantum is full per §5.1: work was done on every
// time step of the quantum.
func (s QuantumStats) Full() bool { return s.IdleSteps == 0 && s.Steps == s.Length }

// AvgParallelism returns A(q) = T1(q)/T∞(q). It returns 0 for an empty
// quantum (no work done).
func (s QuantumStats) AvgParallelism() float64 {
	if s.CPL == 0 {
		return 0
	}
	return float64(s.Work) / s.CPL
}

// Waste returns the processor cycles wasted in the quantum: allotted
// processor-steps not spent completing tasks. Only the steps the job
// actually held processors count; the boundary tail after completion is
// accounted separately by the engine (see sim.BoundaryWaste).
func (s QuantumStats) Waste() int64 {
	return int64(s.Allotment)*int64(s.Steps) - s.Work
}

// WorkEfficiency returns α(q) = T1(q) / (a(q)·L) for a full quantum.
func (s QuantumStats) WorkEfficiency() float64 {
	if s.Allotment == 0 || s.Length == 0 {
		return 0
	}
	return float64(s.Work) / (float64(s.Allotment) * float64(s.Length))
}

// CPLEfficiency returns β(q) = T∞(q) / L.
func (s QuantumStats) CPLEfficiency() float64 {
	if s.Length == 0 {
		return 0
	}
	return s.CPL / float64(s.Length)
}

// String renders the stats compactly for traces and debugging.
func (s QuantumStats) String() string {
	return fmt.Sprintf("q=%d d=%.2f a=%d steps=%d/%d T1=%d T∞=%.3f A=%.2f",
		s.Index, s.Request, s.Allotment, s.Steps, s.Length, s.Work, s.CPL, s.AvgParallelism())
}

// Scratch holds the reusable buffers RunQuantumScratch's step loop needs:
// the per-step completion buffer and a dense per-level accumulator. The
// closed-form breadth-first quantum of a *job.Run uses neither. A Scratch
// belongs to one goroutine at a time (the engine keeps one for all its
// jobs); the zero value is ready to use and the buffers grow to the
// largest job seen, so a long-lived Scratch makes the quantum loop
// allocation-free.
type Scratch struct {
	buf []job.LevelCount
	// levelDone[l] accumulates tasks completed at level l this quantum.
	// Invariant between calls: every element is zero — RunQuantumScratch
	// clears exactly the window it touched before returning, so reuse never
	// pays for the full slice.
	levelDone []int
}

// RunQuantum executes one scheduling quantum: up to length steps of inst
// with the given allotment, selecting tasks per the scheduler's order, and
// returns the measured statistics. The Index, Start, Request and Deprived
// fields are left for the caller (the engine) to fill in. It allocates
// fresh scratch; hot loops should hold a Scratch and call
// RunQuantumScratch.
func RunQuantum(inst job.Instance, sc Scheduler, allotment, length int) QuantumStats {
	var st QuantumStats
	RunQuantumScratch(&st, inst, sc, allotment, length, &Scratch{})
	return st
}

// RunQuantumScratch is RunQuantum with caller-owned scratch buffers and a
// caller-owned record, the allocation- and copy-free form the engine's hot
// path uses: it overwrites every field of *st, so the engine measures
// straight into a job's last-quantum record. The measurement is
// bit-identical to RunQuantum's: per-level fractions are summed in
// ascending level order (float addition is not associative, and replay
// determinism must not hinge on accumulation order), which the dense
// accumulator gives for free where the old map needed a sort.
//
// A *job.Run under a breadth-first or FIFO order with a positive allotment
// runs the quantum in closed form (job.Run.StepsBreadthFirst) when its
// cursor allows; the closed form reproduces the step loop's float
// additions bit for bit, so the stats are identical to the step loop
// below, which serves every other case and is the reference the closed
// form is tested against.
func RunQuantumScratch(st *QuantumStats, inst job.Instance, sc Scheduler, allotment, length int, scr *Scratch) {
	*st = QuantumStats{Allotment: allotment, Length: length}
	if length <= 0 {
		return
	}
	if r, ok := inst.(*job.Run); ok && (sc.order == job.BreadthFirst || sc.order == job.FIFO) {
		if s, ok := r.StepsBreadthFirst(allotment, length); ok {
			st.Steps, st.PartialSteps, st.Work = s.Steps, s.Partial, s.Work
			st.LevelsTouched, st.CPL = s.Levels, s.CPL
			st.Completed = s.Steps > 0 && r.Done()
			return
		}
	}
	lo, hi := int(^uint(0)>>1), -1 // touched level window [lo, hi]
	for s := 0; s < length; s++ {
		if inst.Done() {
			break
		}
		var n int
		scr.buf = scr.buf[:0]
		n, scr.buf = inst.Step(allotment, sc.order, scr.buf)
		st.Steps++
		if n == 0 {
			st.IdleSteps++
			continue
		}
		st.Work += int64(n)
		if n < allotment {
			st.PartialSteps++
		}
		for _, lc := range scr.buf {
			for len(scr.levelDone) <= lc.Level {
				scr.levelDone = append(scr.levelDone, 0)
			}
			scr.levelDone[lc.Level] += lc.Count
			if lc.Level < lo {
				lo = lc.Level
			}
			if lc.Level > hi {
				hi = lc.Level
			}
		}
		if inst.Done() {
			st.Completed = true
			break
		}
	}
	for l := lo; l <= hi; l++ {
		if c := scr.levelDone[l]; c > 0 {
			st.LevelsTouched++
			st.CPL += float64(c) / float64(inst.LevelWidth(l))
			scr.levelDone[l] = 0
		}
	}
}
