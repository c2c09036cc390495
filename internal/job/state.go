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

// Run cursor layouts. The dense layout (tag 20) writes every level's count
// and is still read, so cursors journaled before the window layout existed
// restore; MarshalState writes the window layout (tag 21), whose size is
// the window's, O(1) for a breadth-first cursor. A binary that predates tag
// 21 cannot read it, so replicas that restore cursors upgrade before the
// leader that writes them.
const (
	runStateTag  byte = 20 // levels, every level's count, frontier, head, done
	runWindowTag byte = 21 // levels, frontier, its count, window length, window
)

// MarshalState implements Stateful: the level count (which ties the cursor
// to its profile's shape), the frontier, its count and the window above it.
// The task count done is derived from those on restore.
func (r *Run) MarshalState() ([]byte, error) {
	e := persist.Enc{}
	e.Int(r.p.CriticalPathLen())
	e.Int(r.frontier)
	e.Int(r.front)
	e.Int(len(r.window))
	for _, c := range r.window {
		e.Int(c)
	}
	return append([]byte{runWindowTag}, e.Bytes()...), nil
}

// UnmarshalState implements Stateful, for either layout. The cursor must
// match this run's profile shape: a level-count mismatch means the blob
// belongs to a different job and is rejected. So is a count outside its
// level's width, a cursor that is not what stepping can leave (a frontier
// that is complete, a window ending in an untouched level), and a dense
// cursor whose frontier, head or done disagrees with its per-level counts.
// Step and StepsBreadthFirst trust the cursor, and an inconsistent one
// would run differently on the two. A rejected cursor leaves the run reset
// to its start: the fresh instance the contract restores onto.
func (r *Run) UnmarshalState(data []byte) error {
	r.Reset()
	var err error
	switch {
	case len(data) > 0 && data[0] == runWindowTag:
		err = r.decodeWindow(persist.NewDec(data[1:]))
	case len(data) > 0 && data[0] == runStateTag:
		err = r.decodeDense(persist.NewDec(data[1:]))
	default:
		err = fmt.Errorf("bad state tag (%d bytes)", len(data))
	}
	if err != nil {
		r.Reset()
		return fmt.Errorf("job: run cursor: %w", err)
	}
	return nil
}

// checkLevels rejects a cursor written for a profile of another length.
func (r *Run) checkLevels(d *persist.Dec) error {
	if n := d.Int(); d.Err() == nil && n != r.p.CriticalPathLen() {
		return fmt.Errorf("cursor for %d levels, profile has %d", n, r.p.CriticalPathLen())
	}
	return d.Err()
}

// decodeWindow decodes the window layout straight into the run and derives
// done from it, in O(segments + window).
func (r *Run) decodeWindow(d *persist.Dec) error {
	if err := r.checkLevels(d); err != nil {
		return err
	}
	segs, levels := r.p.segs, r.p.CriticalPathLen()
	frontier, front, size := d.Int(), d.Int(), d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if frontier < 0 || frontier > levels {
		return fmt.Errorf("frontier %d outside [0,%d]", frontier, levels)
	}
	k := r.p.segmentOf(frontier)
	switch {
	case frontier == levels && (front != 0 || size != 0):
		return fmt.Errorf("finished cursor with frontier count %d and window %d", front, size)
	case frontier < levels && (front < 0 || front >= segs[k].Width):
		return fmt.Errorf("frontier count %d outside [0,%d)", front, segs[k].Width)
	case size < 0 || size > max(levels-frontier-1, 0) || size > d.Len():
		return fmt.Errorf("window of %d levels above frontier %d of %d", size, frontier, levels)
	}
	// done: the levels below the frontier, the frontier, then the window.
	var done int64
	start := 0
	for _, s := range segs[:k] {
		done += int64(s.end-start) * int64(s.Width)
		start = s.end
	}
	if k < len(segs) {
		done += int64(frontier-start)*int64(segs[k].Width) + int64(front)
	}
	if size > 0 {
		r.window = make([]int, size)
	}
	for i, l, j := 0, frontier+1, k; i < size && d.Err() == nil; i, l = i+1, l+1 {
		for l >= segs[j].end {
			j++
		}
		c := d.Int()
		if c < 0 || c > segs[j].Width {
			return fmt.Errorf("level %d completion %d outside [0,%d]", l, c, segs[j].Width)
		}
		r.window[i] = c
		done += int64(c)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Len() != 0 {
		return fmt.Errorf("%d trailing bytes", d.Len())
	}
	if size > 0 && r.window[size-1] == 0 {
		return fmt.Errorf("window ends in an untouched level %d", frontier+size)
	}
	r.frontier, r.seg, r.front, r.done = frontier, k, front, done
	return nil
}

// decodeDense decodes the dense layout: n level counts, then the derived
// cursors, which must be what the counts give. It keeps only the frontier
// count and the window up to the highest started level, so restoring a
// long job's dense cursor allocates no per-level copy.
func (r *Run) decodeDense(d *persist.Dec) error {
	if err := r.checkLevels(d); err != nil {
		return err
	}
	segs, levels := r.p.segs, r.p.CriticalPathLen()
	front, top := levels, -1 // lowest incomplete, highest started level
	var sum int64
	for i, k := 0, 0; i < levels && d.Err() == nil; i++ {
		if i == segs[k].end {
			k++
		}
		c, w := d.Int(), segs[k].Width
		if c < 0 || c > w {
			return fmt.Errorf("level %d completion %d outside [0,%d]", i, c, w)
		}
		switch {
		case c < w && front > i:
			front, r.seg, r.front = i, k, c
		case i > front && c > 0:
			for len(r.window) < i-front-1 {
				r.window = append(r.window, 0)
			}
			r.window = append(r.window, c)
		}
		if c > 0 {
			top = i
		}
		sum += int64(c)
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
	if front == levels {
		r.seg = len(segs)
	}
	r.frontier, r.done = frontier, done
	return nil
}

var _ Stateful = (*Run)(nil)
