package job

import (
	"fmt"

	"abg/internal/persist"
)

// Stateful is implemented by job instances whose execution cursor can be
// captured and restored for crash recovery. The contract mirrors
// feedback.StateCodec: restore the blob onto a fresh instance of the *same*
// job description and every subsequent Step behaves bit-identically to the
// original. The description itself (the Profile) is not part of the state —
// it is rebuilt deterministically from the journaled workload spec.
type Stateful interface {
	// MarshalState returns the instance's execution cursor.
	MarshalState() ([]byte, error)
	// UnmarshalState restores a cursor captured on an instance of the same
	// job description.
	UnmarshalState(data []byte) error
}

// runStateTag versions the Run cursor layout.
const runStateTag byte = 20

// MarshalState implements Stateful: the per-level completion counts plus
// the derived cursors (frontier, head, done) that make Step O(active
// window) and StepsBreadthFirst O(levels touched).
func (r *Run) MarshalState() ([]byte, error) {
	e := persist.Enc{}
	e.Int(len(r.completed))
	for _, c := range r.completed {
		e.Int(c)
	}
	e.Int(r.frontier)
	e.Int(r.head)
	e.Varint(r.done)
	return append([]byte{runStateTag}, e.Bytes()...), nil
}

// UnmarshalState implements Stateful. The cursor must match this run's
// profile shape: a level-count mismatch means the blob belongs to a
// different job and is rejected. So is a cursor whose frontier, head or
// done disagrees with its per-level counts. A rejected cursor leaves the
// run reset to its start: the fresh instance the contract restores onto.
func (r *Run) UnmarshalState(data []byte) error {
	if len(data) < 1 || data[0] != runStateTag {
		return fmt.Errorf("job: run cursor: bad state tag (%d bytes)", len(data))
	}
	d := persist.NewDec(data[1:])
	n := d.Int()
	if d.Err() == nil && n != len(r.completed) {
		return fmt.Errorf("job: run cursor for %d levels, profile has %d", n, len(r.completed))
	}
	if err := r.decodeCursor(d, n); err != nil {
		r.Reset()
		return fmt.Errorf("job: run cursor: %w", err)
	}
	return nil
}

// decodeCursor decodes n level counts straight into r.completed, then the
// derived cursors, which must be what the counts give: Step and
// StepsBreadthFirst trust them, and an inconsistent cursor would run
// differently on the two. Deriving them while decoding keeps restore to
// one pass over the levels, with no temporary copy.
func (r *Run) decodeCursor(d *persist.Dec, n int) error {
	levels := r.p.levels
	front, top := len(levels), -1 // lowest incomplete, highest started level
	var sum int64
	for i := 0; i < n && d.Err() == nil; i++ {
		c, w := d.Int(), levels[i].Width
		if c < 0 || c > w {
			return fmt.Errorf("level %d completion %d outside [0,%d]", i, c, w)
		}
		if c < w && front > i {
			front = i
		}
		if c > 0 {
			top = i
		}
		sum += int64(c)
		r.completed[i] = c
	}
	frontier, head, done := d.Int(), d.Int(), d.Varint()
	if err := d.Err(); err != nil {
		return err
	}
	if d.Len() != 0 {
		return fmt.Errorf("%d trailing bytes", d.Len())
	}
	if frontier != front || head != top || done != sum {
		return fmt.Errorf("frontier=%d head=%d done=%d, but the levels give %d, %d, %d",
			frontier, head, done, front, top, sum)
	}
	r.frontier, r.head, r.done = frontier, head, done
	return nil
}

var _ Stateful = (*Run)(nil)
