package job

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// LevelKind describes how tasks of a level become ready.
type LevelKind uint8

const (
	// Sync levels become ready only once the entire previous level has
	// completed (fork and join points, serial tasks, level-barrier jobs).
	Sync LevelKind = iota
	// Chain levels pair tasks with the previous level: task i becomes ready
	// when task i of the previous level completes (the interior of a
	// parallel phase made of independent chains). A Chain level must have
	// the same width as its predecessor.
	Chain
)

// String returns the name of the kind.
func (k LevelKind) String() string {
	switch k {
	case Sync:
		return "sync"
	case Chain:
		return "chain"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Level is one level of a profile job: Width unit tasks that become ready
// according to Kind.
type Level struct {
	Width int
	Kind  LevelKind
}

// Segment is Count consecutive levels that share one Width and Kind. A
// fork-join phase is a few segments however long it runs: a Sync fan-out
// level, then its Chain levels.
type Segment struct {
	Level
	Count int
}

// Profile describes a job as a sequence of levels. It is the compact,
// immutable description; Run executes it. Profiles model exactly the
// level-structured data-parallel jobs the paper simulates, while arbitrary
// DAGs are handled by package dag.
//
// The levels are stored as maximal segments, so a profile costs O(phases)
// however many levels it has, and two profiles with the same levels are
// equal (reflect.DeepEqual) whichever constructor built them.
type Profile struct {
	segs []segment
	work int64
}

// segment is a Segment positioned in its profile.
type segment struct {
	Level
	end int // one past the segment's last level
}

// draft is a profile under construction: add appends levels, merging equal
// neighbours into one segment, and is the one validation path every
// constructor shares.
type draft struct {
	segs []segment
	work int64
}

// levels returns how many levels the draft holds.
func (b *draft) levels() int {
	if len(b.segs) == 0 {
		return 0
	}
	return b.segs[len(b.segs)-1].end
}

// add appends count copies of l. Rules: count and the width are ≥ 1; the
// kind is Sync or Chain; level 0 is Sync (there is nothing to chain from); a
// Chain level matches its predecessor's width; the level count and the
// work fit in an int.
func (b *draft) add(l Level, count int) error {
	at := b.levels()
	switch {
	case count < 1:
		return fmt.Errorf("job: segment at level %d has %d levels", at, count)
	case l.Width < 1:
		return fmt.Errorf("job: level %d has width %d", at, l.Width)
	case l.Kind != Sync && l.Kind != Chain:
		return fmt.Errorf("job: level %d has kind %v", at, l.Kind)
	case at == 0 && l.Kind != Sync:
		return errors.New("job: level 0 must be Sync")
	case l.Kind == Chain && b.segs[len(b.segs)-1].Width != l.Width:
		return fmt.Errorf("job: chain level %d width %d != predecessor width %d",
			at, l.Width, b.segs[len(b.segs)-1].Width)
	case count > math.MaxInt-at || int64(count) > (math.MaxInt-b.work)/int64(l.Width):
		return fmt.Errorf("job: profile overflows at level %d", at)
	}
	if n := len(b.segs); n > 0 && b.segs[n-1].Level == l {
		b.segs[n-1].end += count
	} else {
		b.segs = append(b.segs, segment{Level: l, end: at + count})
	}
	b.work += int64(count) * int64(l.Width)
	return nil
}

// profile returns the built profile.
func (b *draft) profile() (*Profile, error) {
	if len(b.segs) == 0 {
		return nil, errors.New("job: profile needs at least one level")
	}
	return &Profile{segs: b.segs, work: b.work}, nil
}

// must returns p, panicking on err; for the constructors below, whose inputs
// are valid by construction or documented to panic.
func must(p *Profile, err error) *Profile {
	if err != nil {
		panic(err)
	}
	return p
}

// NewProfile validates the level sequence and returns a Profile.
// Rules: at least one level; every width ≥ 1; every kind Sync or Chain;
// level 0 must be Sync (there is nothing to chain from); a Chain level must
// match its predecessor's width.
func NewProfile(levels []Level) (*Profile, error) {
	var b draft
	for _, l := range levels {
		if err := b.add(l, 1); err != nil {
			return nil, err
		}
	}
	return b.profile()
}

// NewProfileSegments is NewProfile for a sequence of segments: the same
// rules, plus Count ≥ 1. It allocates O(len(segs)) however many levels the
// segments hold, which is how the workload generators build long jobs.
func NewProfileSegments(segs []Segment) (*Profile, error) {
	b := draft{segs: make([]segment, 0, len(segs))}
	for _, s := range segs {
		if err := b.add(s.Level, s.Count); err != nil {
			return nil, err
		}
	}
	return b.profile()
}

// MustProfile is NewProfile that panics on error; for tests and literals.
func MustProfile(levels []Level) *Profile { return must(NewProfile(levels)) }

// Work returns T1, the total number of unit tasks.
func (p *Profile) Work() int64 { return p.work }

// CriticalPathLen returns T∞ in levels (every level contributes one node to
// the longest chain).
func (p *Profile) CriticalPathLen() int { return p.segs[len(p.segs)-1].end }

// AvgParallelism returns T1/T∞.
func (p *Profile) AvgParallelism() float64 {
	return float64(p.work) / float64(p.CriticalPathLen())
}

// MaxWidth returns the widest level.
func (p *Profile) MaxWidth() int {
	m := 0
	for _, s := range p.segs {
		m = max(m, s.Width)
	}
	return m
}

// Level returns the i-th level, found by binary search over the segments.
func (p *Profile) Level(i int) Level {
	if i < 0 || i >= p.CriticalPathLen() {
		panic(fmt.Sprintf("job: level %d outside [0,%d)", i, p.CriticalPathLen()))
	}
	return p.segs[p.segmentOf(i)].Level
}

// segmentOf returns the index of the segment holding level i, or
// len(segs) when i is past the last level.
func (p *Profile) segmentOf(i int) int {
	k, _ := slices.BinarySearchFunc(p.segs, i, func(s segment, i int) int {
		return cmp.Compare(s.end, i+1)
	})
	return k
}

// segStart returns the first level of segment k.
func (p *Profile) segStart(k int) int {
	if k == 0 {
		return 0
	}
	return p.segs[k-1].end
}

// Segments returns a copy of the profile's maximal segments.
func (p *Profile) Segments() []Segment {
	out := make([]Segment, len(p.segs))
	start := 0
	for i, s := range p.segs {
		out[i] = Segment{Level: s.Level, Count: s.end - start}
		start = s.end
	}
	return out
}

// Widths returns a copy of the level widths, mostly for tests and display.
func (p *Profile) Widths() []int {
	ws := make([]int, 0, p.CriticalPathLen())
	start := 0
	for _, s := range p.segs {
		for ; start < s.end; start++ {
			ws = append(ws, s.Width)
		}
	}
	return ws
}

// Constant returns a profile with constant parallelism: `height` levels of
// `width` independent chains (a Sync fan-out level followed by Chain levels).
// This is the constant-parallelism job of Figures 1 and 4.
func Constant(width, height int) *Profile {
	if width < 1 || height < 1 {
		panic("job: Constant needs width, height >= 1")
	}
	segs := []Segment{{Level{Width: width, Kind: Sync}, 1}, {Level{Width: width, Kind: Chain}, height - 1}}
	if height == 1 {
		segs = segs[:1]
	}
	return must(NewProfileSegments(segs))
}

// Serial returns a profile that is a chain of n unit tasks.
func Serial(n int) *Profile {
	if n < 1 {
		panic("job: Serial needs n >= 1")
	}
	return must(NewProfileSegments([]Segment{{Level{Width: 1, Kind: Sync}, n}}))
}

// FromWidths returns a level-synchronized profile (every level Sync) with the
// given widths. This models barrier-style data-parallel jobs.
func FromWidths(widths []int) *Profile {
	var b draft
	for _, w := range widths {
		if err := b.add(Level{Width: w, Kind: Sync}, 1); err != nil {
			panic(err)
		}
	}
	return must(b.profile())
}

// Concat returns a profile that runs the given profiles back to back. Level
// 0 of every profile is Sync, which models a join between consecutive job
// fragments.
func Concat(ps ...*Profile) *Profile {
	if len(ps) == 0 {
		panic("job: Concat of nothing")
	}
	var b draft
	for _, p := range ps {
		start := 0
		for _, s := range p.segs {
			if err := b.add(s.Level, s.end-start); err != nil {
				panic(err)
			}
			start = s.end
		}
	}
	return must(b.profile())
}
