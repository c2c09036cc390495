// Package job defines the executable job abstraction the simulator drives.
//
// A malleable job is, per the paper, a dynamically unfolding DAG of unit-size
// tasks. The simulator only ever interacts with a job through the Instance
// interface: it executes one discrete time step at a time with a given
// processor allotment and observes which tasks (grouped by DAG level)
// completed. That keeps the scheduler non-clairvoyant — nothing about the
// future structure of the job leaks into scheduling decisions.
//
// Two implementations exist:
//
//   - Profile/Run (this package): jobs described as a sequence of levels with
//     widths and readiness kinds, stored as run-length segments. This covers
//     the paper's data-parallel fork-join workloads, and a job costs
//     O(phases) however long it runs: its profile holds a few segments per
//     phase, a breadth-first cursor is O(1), and a whole breadth-first
//     quantum costs O(segments touched) (Run.StepsBreadthFirst). A single
//     step costs O(window), the levels depth-first steps started above the
//     frontier.
//   - dag.Run (package abg/internal/dag): explicit node/edge DAGs for exact
//     small-scale experiments such as the Figure 2 measurement example.
package job

import "fmt"

// Order selects which ready tasks a greedy scheduler executes first when
// there are more ready tasks than processors.
type Order uint8

const (
	// BreadthFirst gives priority to the ready task with the lowest level —
	// the B-Greedy strategy (paper §2). It guarantees no task at level l
	// completes later than any task at level l+1 and makes the per-quantum
	// average-parallelism measurement exact.
	BreadthFirst Order = iota
	// DepthFirst gives priority to the highest level, the adversarial
	// ordering for the measurement; used by the execution-order ablation.
	DepthFirst
	// FIFO executes ready tasks in the order they became ready — a plain
	// greedy scheduler with no level awareness.
	FIFO
)

// String returns the conventional name of the order.
func (o Order) String() string {
	switch o {
	case BreadthFirst:
		return "breadth-first"
	case DepthFirst:
		return "depth-first"
	case FIFO:
		return "fifo"
	default:
		return fmt.Sprintf("order(%d)", uint8(o))
	}
}

// LevelCount records how many tasks of one DAG level completed in one step.
type LevelCount struct {
	Level int
	Count int
}

// Instance is one executable run of a job. Implementations are single-use:
// once Done reports true the instance stays finished.
//
// Step semantics: a task is eligible in a step only if all its parents
// completed in a *previous* step (tasks never chain within one step), and at
// most p tasks execute. Implementations must execute exactly
// min(p, #ready tasks) tasks, picking victims per the given Order.
type Instance interface {
	// Step executes one time step with p processors. It appends per-level
	// completion counts to buf (which may be nil) and returns the total
	// number of tasks completed together with the (possibly reallocated)
	// buffer. Calling Step on a finished instance returns 0 completions.
	Step(p int, order Order, buf []LevelCount) (int, []LevelCount)

	// Done reports whether every task of the job has completed.
	Done() bool

	// Remaining returns the number of tasks not yet completed.
	Remaining() int64

	// TotalWork returns T1, the total number of unit tasks. Analysis only;
	// scheduling policies must not consult it.
	TotalWork() int64

	// CriticalPathLen returns T∞ in levels. Analysis only.
	CriticalPathLen() int

	// LevelWidth returns the total number of tasks at the given level; the
	// quantum measurement divides per-level completions by this to form the
	// fractional quantum critical-path length of paper §2.
	LevelWidth(level int) int
}
