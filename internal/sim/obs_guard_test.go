package sim

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"abg/internal/alloc"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/obs"
	"abg/internal/sched"
	"abg/internal/workload"
)

// The overhead guard runs each subject guardRuns times with no bus and
// with an idle one, side by side, timing the two runs' segments
// alternately; which arm goes first alternates too. Each segment pair is a
// round: both arms see the same host within a millisecond, so the host's
// drift cancels out of the round's ratio (the idle arm's time over the nil
// arm's), and the guard compares the median ratio over all rounds with the
// budget.
const guardRuns = 101

// guardSubject is one code path the guard times. start prepares a run with
// the given bus (nil for none) and returns its next segment: each call runs
// one timed segment and reports whether another remains. Both arms of a
// round run the same segments.
type guardSubject struct {
	name  string
	start func(bus *obs.Bus) (segment func() bool)
}

var guardSubjects = []guardSubject{
	{"RunSingle", func(bus *obs.Bus) func() bool {
		p := workload.ConstantJob(16, 40, 100)
		left := 20
		return func() bool {
			for range 10 {
				if _, err := RunSingle(job.NewRun(p), feedback.NewAControl(0.2), sched.BGreedy(),
					alloc.NewUnconstrained(32), SingleConfig{L: 100, Obs: bus}); err != nil {
					panic(err)
				}
			}
			left--
			return left > 0
		}
	}},
	// engine-10k's input (bench/engine.go): 10k constant-width jobs, widths
	// 1/2/4/8 cycled, 3 quanta each, on P = 2·jobs, L = 100, DEQ. Each
	// Step is a segment.
	{"Engine.Step", func(bus *obs.Bus) func() bool {
		const jobs = 10_000
		eng, err := NewEngine(MultiConfig{P: 2 * jobs, L: 100,
			Allocator: alloc.DynamicEquiPartition{}, Obs: bus})
		if err != nil {
			panic(err)
		}
		var profiles [4]*job.Profile
		for i, w := range [4]int{1, 2, 4, 8} {
			profiles[i] = workload.ConstantJob(w, 3, 100)
		}
		for i := range jobs {
			if _, err := eng.Submit(JobSpec{Name: "bench" + strconv.Itoa(i),
				Inst: job.NewRun(profiles[i%4]), Policy: feedback.NewAControl(0.2),
				Sched: sched.BGreedy()}); err != nil {
				panic(err)
			}
		}
		return func() bool {
			if _, err := eng.Step(); err != nil {
				panic(err)
			}
			return !eng.Done()
		}
	}},
}

// guardRound runs sub with no bus and with the idle bus side by side and
// appends, per segment, the idle arm's time over the nil arm's to ratios.
// odd selects which arm times the first segment.
func guardRound(sub guardSubject, idle *obs.Bus, odd bool, ratios []float64) []float64 {
	arms := [2]func() bool{sub.start(nil), sub.start(idle)}
	runtime.GC()
	first := 0
	if odd {
		first = 1
	}
	for more := true; more; first = 1 - first {
		var spent [2]time.Duration
		for _, a := range [2]int{first, 1 - first} {
			start := time.Now()
			more = arms[a]()
			spent[a] = time.Since(start)
		}
		ratios = append(ratios, spent[1].Seconds()/spent[0].Seconds())
	}
	return ratios
}

// TestEventBusOverheadGuard asserts that carrying a subscriber-less event
// bus costs less than 2% over the nil-bus baseline, through RunSingle and
// through Engine.Step: the median over the rounds of each round's idle-bus
// to nil-bus time ratio must stay under 1.02. Timing is noisy under the
// race detector and on loaded CI machines, so the guard only runs when
// explicitly requested (scripts/check.sh sets ABG_BENCH_GUARD=1); plain
// `go test ./...` skips it.
func TestEventBusOverheadGuard(t *testing.T) {
	if os.Getenv("ABG_BENCH_GUARD") == "" {
		t.Skip("set ABG_BENCH_GUARD=1 to run the overhead guard")
	}
	for _, sub := range guardSubjects {
		idle := obs.NewBus()
		guardRound(sub, idle, false, nil) // warm up: code, caches and the heap's size
		var ratios []float64
		for r := range guardRuns {
			ratios = guardRound(sub, idle, r%2 == 1, ratios)
		}
		slices.Sort(ratios)
		overhead := ratios[len(ratios)/2] - 1
		t.Logf("%s: idle-bus overhead %.2f%% (median of %d rounds; quartiles %.2f%%, %.2f%%)",
			sub.name, overhead*100, len(ratios), (ratios[len(ratios)/4]-1)*100, (ratios[3*len(ratios)/4]-1)*100)
		if overhead > 0.02 {
			t.Errorf("idle event bus adds %.2f%% to %s, budget is 2%%", overhead*100, sub.name)
		}
	}
}
