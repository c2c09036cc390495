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
// count; then each run takes two bytes (width 1–12, height 1–6 levels: a
// Sync level and its Chain levels) and each quantum three (allotment 0–15,
// so widths fall on both sides of it; length 1–32, ×16 when flagged so one
// quantum can span every run; depth-first on two flag values in eight, FIFO
// on a third; a snapshot round trip on one in four).
func decodeQuantumCase(data []byte) (quantumCase, bool) {
	if len(data) < 3 {
		return quantumCase{}, false
	}
	runs := 1 + int(data[0]%8)
	data = data[1:]
	if len(data) < 2*runs {
		return quantumCase{}, false
	}
	var levels []job.Level
	for i := 0; i < runs; i++ {
		w, h := 1+int(data[2*i]%12), 1+int(data[2*i+1]%6)
		levels = append(levels, job.Level{Width: w, Kind: job.Sync})
		for j := 1; j < h; j++ {
			levels = append(levels, job.Level{Width: w, Kind: job.Chain})
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
		c.quanta = append(c.quanta, pl)
	}
	if len(c.quanta) == 0 {
		c.quanta = []quantumPlan{{sched: BGreedy(), allotment: 3, length: 5}}
	}
	return c, true
}

// quantumTally counts which paths a case's quanta exercised.
type quantumTally struct {
	closedForm, nonCanonical, zeroAllot, depthFirst, roundTrips, quanta int
}

// canonical reports whether r's cursor has the breadth-first shape the
// closed form needs: complete levels, at most one partial level, then
// untouched levels.
func canonical(r *job.Run) bool {
	incomplete := false
	for l := 0; l < r.CriticalPathLen(); l++ {
		c := r.CompletedAt(l)
		if incomplete && c > 0 {
			return false
		}
		if c < r.LevelWidth(l) {
			incomplete = true
		}
	}
	return true
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
		switch {
		case pl.sched.Order() == job.DepthFirst:
			tally.depthFirst++
		case pl.allotment == 0:
			tally.zeroAllot++
		case canonical(fast):
			tally.closedForm++
		default:
			tally.nonCanonical++
		}
		tally.quanta++
		got := RunQuantumScratch(fast, pl.sched, pl.allotment, pl.length, &fastScr)
		want := RunQuantumScratch(stepwise{ref}, pl.sched, pl.allotment, pl.length, &refScr)
		if !reflect.DeepEqual(got, want) || math.Float64bits(got.CPL) != math.Float64bits(want.CPL) {
			t.Fatalf("quantum %d (%s a=%d L=%d) of widths %v:\n got  %+v\n want %+v",
				q, pl.sched.Name(), pl.allotment, pl.length, c.profile.Widths(), got, want)
		}
		gotCur, _ := fast.MarshalState()
		wantCur, _ := ref.MarshalState()
		if !bytes.Equal(gotCur, wantCur) {
			t.Fatalf("quantum %d (%s a=%d L=%d) of widths %v: cursor\n got  %x\n want %x",
				q, pl.sched.Name(), pl.allotment, pl.length, c.profile.Widths(), gotCur, wantCur)
		}
	}
}

// TestQuantumBreadthFirstMatchesSteps is the differential test that pins
// the closed-form quantum to the step loop on 12,000 random profiles and
// schedules: Sync/Chain runs with widths above and below the allotment,
// allotments 0, 1 and beyond every width, lengths from one step to past the
// whole job, interleaved depth-first quanta and snapshot round trips.
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
		tally.depthFirst == 0 || tally.roundTrips == 0 {
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
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeQuantumCase(data)
		if !ok {
			return
		}
		checkQuantumCase(t, c, &quantumTally{})
	})
}
