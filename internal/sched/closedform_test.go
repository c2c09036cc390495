package sched

import (
	"bytes"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"abg/internal/job"
)

// stepwise hides *job.Run's concrete type from RunQuantumScratch, so a
// wrapped run always takes the per-step loop: the reference the closed-form
// breadth-first quantum (job.Run.StepsBreadthFirst) is compared with.
type stepwise struct{ job.Instance }

// quantumPlan is one quantum of a decoded schedule.
type quantumPlan struct {
	sched     Scheduler
	allotment int
	length    int
	roundTrip bool // restore the run from MarshalState before this quantum
}

// quantumCase is a profile of Sync/Chain runs plus a quantum schedule that
// repeats until the job finishes.
type quantumCase struct {
	profile *job.Profile
	quanta  []quantumPlan
}

// decodeQuantumCase turns bytes into a quantumCase. Byte 0 gives the run
// count (low three bits) and, when its five high bits are all set, the
// long flag; then each run takes two bytes (width 1–12, height 1–6 levels: a
// Sync level and its Chain levels, or from a width byte of 0xC0 up an
// equal-width Sync segment of that height; the long flag scales heights
// into the thousands) and each quantum three (allotment 0–15, so widths
// fall on both sides of it; length 1–32, ×16 when flagged so one quantum
// can span every run, and ×64 more for breadth-first quanta under the long
// flag, which keeps depth-first windows short; depth-first on two flag
// values in eight, FIFO on a third; a snapshot round trip on one in four).
func decodeQuantumCase(data []byte) (quantumCase, bool) {
	if len(data) < 3 {
		return quantumCase{}, false
	}
	runs := 1 + int(data[0]%8)
	long := data[0]&0xF8 == 0xF8
	data = data[1:]
	if len(data) < 2*runs {
		return quantumCase{}, false
	}
	var levels []job.Level
	for i := 0; i < runs; i++ {
		wb, hb := data[2*i], data[2*i+1]
		w, h := 1+int(wb%12), 1+int(hb%6)
		if long {
			h = h*500 + int(hb)
		}
		rest := job.Chain
		if wb >= 0xC0 {
			rest = job.Sync
		}
		levels = append(levels, job.Level{Width: w, Kind: job.Sync})
		for j := 1; j < h; j++ {
			levels = append(levels, job.Level{Width: w, Kind: rest})
		}
	}
	data = data[2*runs:]
	c := quantumCase{profile: job.MustProfile(levels)}
	for ; len(data) >= 3; data = data[3:] {
		flags := data[2]
		pl := quantumPlan{
			sched:     BGreedy(),
			allotment: int(data[0] % 16),
			length:    1 + int(data[1]%32),
			roundTrip: flags&0x60 == 0x60,
		}
		switch flags & 7 {
		case 0, 1:
			pl.sched = DepthGreedy()
		case 2:
			pl.sched = Greedy()
		}
		if flags&0x10 != 0 {
			pl.length *= 16
		}
		if long && pl.sched.Order() != job.DepthFirst {
			pl.length *= 64
		}
		c.quanta = append(c.quanta, pl)
	}
	if len(c.quanta) == 0 {
		c.quanta = []quantumPlan{{sched: BGreedy(), allotment: 3, length: 5}}
	}
	return c, true
}

// quantumTally counts which paths a case's quanta exercised. multiBinade
// counts closed-form quanta that start inside a level and end with
// T∞(q) ≥ 256, crossing nine powers of two, and syncSkip those that
// complete 64 or more levels of one equal-width Sync segment; only long
// cases reach either.
type quantumTally struct {
	closedForm, nonCanonical, zeroAllot, depthFirst, roundTrips, quanta int
	multiBinade, syncSkip                                               int
}

// frontier tracks a run's lowest incomplete level from outside, through
// CompletedAt alone: the frontier never moves down, so advancing it costs
// O(levels) over a whole run.
type frontier struct {
	level int
	below int64 // tasks in the levels below it
}

// advance moves f past r's completed levels.
func (f *frontier) advance(r *job.Run) {
	for f.level < r.CriticalPathLen() && r.CompletedAt(f.level) == r.LevelWidth(f.level) {
		f.below += int64(r.LevelWidth(f.level))
		f.level++
	}
}

// canonical reports whether r's cursor has the breadth-first shape the
// closed form needs: complete levels, at most one partial level, then
// untouched levels, which holds exactly when the tasks done are those below
// the frontier plus the frontier's own.
func (f *frontier) canonical(r *job.Run) bool {
	done := r.TotalWork() - r.Remaining()
	return f.level == r.CriticalPathLen() || done == f.below+int64(r.CompletedAt(f.level))
}

// syncSkipped reports whether the levels [from, to) cover n or more levels
// of one Sync segment.
func syncSkipped(p *job.Profile, from, to, n int) bool {
	start := 0
	for _, s := range p.Segments() {
		end := start + s.Count
		if s.Kind == job.Sync && min(to, end)-max(from, start) >= n {
			return true
		}
		start = end
	}
	return false
}

// checkQuantumCase runs the case's schedule on a *job.Run through
// RunQuantumScratch and on a stepwise-wrapped twin through the step loop,
// and fails unless every quantum's stats are DeepEqual (CPL to the bit) and
// both cursors marshal to the same bytes.
func checkQuantumCase(t testing.TB, c quantumCase, tally *quantumTally) {
	t.Helper()
	fast, ref := job.NewRun(c.profile), job.NewRun(c.profile)
	var fastScr, refScr Scratch
	// A cycle of the schedule with any allotment completes a task, so the
	// job finishes within Work cycles; with none, one cycle shows it all.
	maxQuanta := len(c.quanta)
	for _, pl := range c.quanta {
		if pl.allotment > 0 {
			maxQuanta *= 1 + int(c.profile.Work())
			break
		}
	}
	var front frontier
	for q := 0; !ref.Done() && q < maxQuanta; q++ {
		pl := c.quanta[q%len(c.quanta)]
		if pl.roundTrip {
			blob, err := fast.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			fast = job.NewRun(c.profile)
			if err := fast.UnmarshalState(blob); err != nil {
				t.Fatalf("quantum %d: restoring a live cursor: %v", q, err)
			}
			tally.roundTrips++
		}
		front.advance(fast)
		closedForm := false
		switch {
		case pl.sched.Order() == job.DepthFirst:
			tally.depthFirst++
		case pl.allotment == 0:
			tally.zeroAllot++
		case front.canonical(fast):
			tally.closedForm++
			closedForm = true
		default:
			tally.nonCanonical++
		}
		tally.quanta++
		from, midLevel := front.level, false
		if from < c.profile.CriticalPathLen() && fast.CompletedAt(from) > 0 {
			from, midLevel = from+1, true
		}
		var got, want QuantumStats
		RunQuantumScratch(&got, fast, pl.sched, pl.allotment, pl.length, &fastScr)
		RunQuantumScratch(&want, stepwise{ref}, pl.sched, pl.allotment, pl.length, &refScr)
		if !reflect.DeepEqual(got, want) || math.Float64bits(got.CPL) != math.Float64bits(want.CPL) {
			t.Fatalf("quantum %d (%s a=%d L=%d) of segments %v:\n got  %+v\n want %+v",
				q, pl.sched.Name(), pl.allotment, pl.length, c.profile.Segments(), got, want)
		}
		if closedForm {
			front.advance(fast)
			if midLevel && got.CPL >= 256 {
				tally.multiBinade++
			}
			if syncSkipped(c.profile, from, front.level, 64) {
				tally.syncSkip++
			}
		}
		gotCur, _ := fast.MarshalState()
		wantCur, _ := ref.MarshalState()
		if !bytes.Equal(gotCur, wantCur) {
			t.Fatalf("quantum %d (%s a=%d L=%d) of segments %v: cursor\n got  %x\n want %x",
				q, pl.sched.Name(), pl.allotment, pl.length, c.profile.Segments(), gotCur, wantCur)
		}
	}
}

// TestQuantumBreadthFirstMatchesSteps is the differential test that pins
// the closed-form quantum to the step loop on 12,000 random profiles and
// schedules: Sync/Chain runs and equal-width Sync segments with widths
// above and below the allotment, one case in 32 with runs thousands of
// levels long, allotments 0, 1 and beyond every width, lengths from one
// step to past the whole job, interleaved depth-first quanta and snapshot
// round trips.
func TestQuantumBreadthFirstMatchesSteps(t *testing.T) {
	rng := rand.New(rand.NewPCG(20080414, 14))
	var tally quantumTally
	// A length whose product with the allotment overflows an int: the
	// closed form's task budget must saturate, not wrap.
	checkQuantumCase(t, quantumCase{
		profile: job.Concat(job.Constant(5, 7), job.Serial(3), job.Constant(2, 4)),
		quanta:  []quantumPlan{{sched: BGreedy(), allotment: 4, length: math.MaxInt}},
	}, &tally)
	cases := 0
	for cases < 12_000 {
		data := make([]byte, 3+rng.IntN(40))
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		c, ok := decodeQuantumCase(data)
		if !ok {
			continue
		}
		checkQuantumCase(t, c, &tally)
		cases++
	}
	t.Logf("%d profiles: %+v", cases, tally)
	// Every path must actually have run, the fallback from a cursor that
	// depth-first steps left non-canonical included.
	if tally.closedForm < 10_000 || tally.nonCanonical == 0 || tally.zeroAllot == 0 ||
		tally.depthFirst == 0 || tally.roundTrips == 0 || tally.multiBinade == 0 || tally.syncSkip == 0 {
		t.Fatalf("schedule coverage too thin: %+v", tally)
	}
}

// FuzzQuantumBreadthFirst explores the same comparison from arbitrary
// bytes (layout in decodeQuantumCase). The seed corpus runs in go test;
// `go test -run '^$' -fuzz FuzzQuantumBreadthFirst ./internal/sched/`
// explores further.
func FuzzQuantumBreadthFirst(f *testing.F) {
	f.Add([]byte{0, 7, 5, 3, 4, 3})                             // one wide run, a < w
	f.Add([]byte{2, 2, 3, 0, 0, 5, 4, 9, 31, 2})                // narrow runs, a > w, FIFO
	f.Add([]byte{1, 8, 5, 8, 5, 6, 9, 0, 6, 9, 3})              // depth-first, then breadth-first
	f.Add([]byte{3, 1, 0, 11, 5, 1, 1, 4, 1, 0, 0, 3, 1, 0, 3}) // zero allotment, one-step quanta
	f.Add([]byte{1, 4, 2, 9, 3, 15, 3, 0x73, 3, 20, 0x63})      // long quanta, round trips
	f.Add([]byte{0xF9, 6, 200, 10, 77, 3, 0, 0x03, 5, 9, 0x13}) // long runs, widths 7 and 11, from mid-level
	f.Add([]byte{0xF8, 0xC2, 250, 2, 4, 0x03, 9, 1, 0x13})      // long Sync segment of width 3
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeQuantumCase(data)
		if !ok {
			return
		}
		checkQuantumCase(t, c, &quantumTally{})
	})
}
