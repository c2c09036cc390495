package sim

import (
	"math"
	"testing"

	"abg/internal/alloc"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/metrics"
	"abg/internal/sched"
	"abg/internal/workload"
	"abg/internal/xrand"
)

func TestRoundRequest(t *testing.T) {
	cases := []struct {
		d    float64
		want int
	}{
		{0, 1}, {0.3, 1}, {1, 1}, {1.0000000001, 1}, {1.1, 2}, {7.5, 8}, {8, 8}, {-2, 1},
	}
	for _, c := range cases {
		if got := RoundRequest(c.d); got != c.want {
			t.Errorf("RoundRequest(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestRunSingleConstantJobABG(t *testing.T) {
	// Constant parallelism 10 for many quanta: A-Control requests converge
	// to 10 with rate r and stay (Theorem 1 realised in simulation).
	const width, L = 10, 100
	p := workload.ConstantJob(width, 20, L)
	res, err := RunSingle(job.NewRun(p), feedback.NewAControl(0.2), sched.BGreedy(),
		alloc.NewUnconstrained(128), SingleConfig{L: L, KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	reqs := res.Requests()
	// After a handful of quanta the request must sit at 10 ± tiny.
	for i := 6; i < len(reqs); i++ {
		if math.Abs(reqs[i]-width) > 0.05 {
			t.Fatalf("request %d = %v, want ~%d", i, reqs[i], width)
		}
	}
	// No overshoot ever.
	for i, d := range reqs {
		if d > width+1e-9 {
			t.Fatalf("request %d overshot: %v", i, d)
		}
	}
	// Runtime near optimal: T∞ plus the warm-up quanta where a < width.
	if res.NormalizedRuntime() > 1.25 {
		t.Fatalf("normalized runtime %v too high", res.NormalizedRuntime())
	}
}

func TestRunSingleAGreedyOscillates(t *testing.T) {
	const width, L = 10, 100
	p := workload.ConstantJob(width, 30, L)
	res, err := RunSingle(job.NewRun(p), feedback.DefaultAGreedy(), sched.Greedy(),
		alloc.NewUnconstrained(128), SingleConfig{L: L, KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	reqs := res.Requests()
	if len(reqs) < 10 {
		t.Fatalf("too few quanta: %d", len(reqs))
	}
	// In the steady regime, requests keep moving.
	changes := 0
	for i := len(reqs) / 2; i < len(reqs); i++ {
		if reqs[i] != reqs[i-1] {
			changes++
		}
	}
	if changes == 0 {
		t.Fatalf("A-Greedy stabilised unexpectedly: %v", reqs)
	}
}

func TestRunSingleAccountingIdentity(t *testing.T) {
	rng := xrand.New(31)
	for trial := 0; trial < 10; trial++ {
		p := workload.GenJob(rng, workload.ScaledJobParams(rng.IntRange(2, 12), 50, 1))
		res, err := RunSingle(job.NewRun(p), feedback.NewAControl(0.2), sched.BGreedy(),
			alloc.NewUnconstrained(64), SingleConfig{L: 50, KeepTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.AllottedCycles-res.Work != res.Waste {
			t.Fatalf("accounting: allotted %d − work %d != waste %d",
				res.AllottedCycles, res.Work, res.Waste)
		}
		if res.Work != p.Work() || res.CriticalPath != p.CriticalPathLen() {
			t.Fatal("work/cpl echo wrong")
		}
		// Runtime is at least both classic lower bounds for the granted
		// allotments... at minimum the critical path.
		if res.Runtime < int64(p.CriticalPathLen()) {
			t.Fatalf("runtime %d below critical path %d", res.Runtime, p.CriticalPathLen())
		}
		if res.Utilization() <= 0 || res.Utilization() > 1 {
			t.Fatalf("utilization %v out of range", res.Utilization())
		}
		if res.Speedup() <= 0 {
			t.Fatal("speedup must be positive")
		}
		sumSteps := 0
		for _, q := range res.Quanta {
			sumSteps += q.Steps
		}
		if int64(sumSteps) != res.Runtime {
			t.Fatal("trace steps disagree with runtime")
		}
		if res.NumQuanta != len(res.Quanta) {
			t.Fatal("NumQuanta disagrees with trace length")
		}
	}
}

func TestRunSingleDropTrace(t *testing.T) {
	p := workload.ConstantJob(4, 3, 20)
	res, err := RunSingle(job.NewRun(p), feedback.NewAControl(0.2), sched.BGreedy(),
		alloc.NewUnconstrained(16), SingleConfig{L: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quanta) != 0 || res.NumQuanta == 0 {
		t.Fatalf("trace should be dropped: %d records, %d quanta", len(res.Quanta), res.NumQuanta)
	}
}

func TestRunSingleConfigValidation(t *testing.T) {
	p := workload.ConstantJob(2, 1, 10)
	if _, err := RunSingle(job.NewRun(p), feedback.NewAControl(0.2), sched.BGreedy(),
		alloc.NewUnconstrained(4), SingleConfig{L: 0}); err == nil {
		t.Fatal("L=0 accepted")
	}
}

func TestRunSingleMaxQuanta(t *testing.T) {
	p := workload.ConstantJob(2, 10, 10)
	_, err := RunSingle(job.NewRun(p), feedback.NewStatic(1), sched.BGreedy(),
		alloc.NewUnconstrained(4), SingleConfig{L: 10, MaxQuanta: 2})
	if err == nil {
		t.Fatal("expected max-quanta error")
	}
}

func TestRunSingleDeprivedFlag(t *testing.T) {
	// Availability of 3 with requests that grow beyond it: deprived quanta
	// must be flagged.
	p := workload.ConstantJob(16, 10, 50)
	a := alloc.NewAvailabilityTrace(128, func(int) int { return 3 }, "cap3")
	res, err := RunSingle(job.NewRun(p), feedback.NewAControl(0.0), sched.BGreedy(), a,
		SingleConfig{L: 50, KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	deprived := 0
	for _, q := range res.Quanta {
		if q.Deprived {
			deprived++
		}
		if q.Allotment > 3 {
			t.Fatalf("allotment %d above availability", q.Allotment)
		}
	}
	if deprived == 0 {
		t.Fatal("no deprived quanta recorded")
	}
}

func TestRunSingleBoundaryWaste(t *testing.T) {
	// A job that finishes mid-quantum leaves a boundary tail a·(L−steps).
	p := job.Constant(4, 30) // 30 levels; with a=4 finishes in 30 steps
	res, err := RunSingle(job.NewRun(p), feedback.NewStatic(4), sched.BGreedy(),
		alloc.NewUnconstrained(8), SingleConfig{L: 100, KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime != 30 {
		t.Fatalf("runtime = %d", res.Runtime)
	}
	if res.BoundaryWaste != 4*(100-30) {
		t.Fatalf("boundary waste = %d", res.BoundaryWaste)
	}
}

// TestLemma2RequestBounds validates Lemma 2 against simulation: with the
// transition factor C_L measured from the executed trace and r < 1/C_L,
// every full quantum satisfies
// (1−r)/(C_L−r)·A(q) ≤ d(q) ≤ C_L(1−r)/(1−C_L·r)·A(q).
func TestLemma2RequestBounds(t *testing.T) {
	rng := xrand.New(41)
	checked := 0
	for trial := 0; trial < 30; trial++ {
		w := rng.IntRange(2, 6)
		r := rng.FloatRange(0, 0.12)
		p := workload.GenJob(rng, workload.ScaledJobParams(w, 40, 1))
		res, err := RunSingle(job.NewRun(p), feedback.NewAControl(r), sched.BGreedy(),
			alloc.NewUnconstrained(256), SingleConfig{L: 40, KeepTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		cl := metrics.TransitionFactorFromQuanta(res.Quanta)
		if r >= 1/cl {
			continue // Lemma 2's upper bound does not apply
		}
		lo, hi := metrics.Lemma2Bounds(cl, r)
		for _, q := range res.Quanta {
			if !q.Full() {
				continue
			}
			a := q.AvgParallelism()
			if q.Request < lo*a-1e-9 {
				t.Fatalf("trial %d q%d: d=%v < lo bound %v (A=%v C_L=%v r=%v)",
					trial, q.Index, q.Request, lo*a, a, cl, r)
			}
			if q.Request > hi*a+1e-9 {
				t.Fatalf("trial %d q%d: d=%v > hi bound %v (A=%v C_L=%v r=%v)",
					trial, q.Index, q.Request, hi*a, a, cl, r)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("too few quanta checked: %d", checked)
	}
}

// TestTheorem4WasteBound validates Theorem 4 against simulation: total waste
// (including the final quantum's boundary tail, which the theorem budgets as
// P·L) stays below C_L(1−r)/(1−C_L·r)·T1 + P·L.
func TestTheorem4WasteBound(t *testing.T) {
	rng := xrand.New(43)
	for trial := 0; trial < 20; trial++ {
		w := rng.IntRange(2, 6)
		r := rng.FloatRange(0, 0.12)
		const P, L = 64, 40
		p := workload.GenJob(rng, workload.ScaledJobParams(w, L, 1))
		res, err := RunSingle(job.NewRun(p), feedback.NewAControl(r), sched.BGreedy(),
			alloc.NewUnconstrained(P), SingleConfig{L: L, KeepTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		cl := metrics.TransitionFactorFromQuanta(res.Quanta)
		if r >= 1/cl {
			continue
		}
		bound := metrics.Theorem4WasteBound(res.Work, cl, r, P, L)
		total := float64(res.Waste + res.BoundaryWaste)
		if total > bound+1e-6 {
			t.Fatalf("trial %d: waste %v > bound %v (C_L=%v r=%v T1=%d)",
				trial, total, bound, cl, r, res.Work)
		}
	}
}

// TestTheorem3RuntimeBound validates Theorem 3 against simulation under an
// adversarial availability trace: the runtime stays below
// 2·T1/P̃ + ((C_L+1−2r)/(1−r))·T∞ + L where P̃ is the trimmed availability.
//
// The workload is a gradual parallelism ramp: for fork-join jobs with
// abrupt serial↔parallel transitions C_L is as large as the parallel width,
// the trim term exceeds the whole run, P̃ is 0 and the bound is vacuous
// (+Inf). Ramps keep C_L ≈ 2 while reaching high parallelism, so the test
// asserts the bound where it actually bites (and checks it bit).
func TestTheorem3RuntimeBound(t *testing.T) {
	rng := xrand.New(47)
	const P, L = 64, 40
	nonVacuous := 0
	for trial := 0; trial < 15; trial++ {
		r := rng.FloatRange(0, 0.12)
		// Parallelism ramp 2 → up to P with adjacent ratios ≤ 2.
		widths := []int{2}
		for widths[len(widths)-1] < P {
			next := widths[len(widths)-1]*3/2 + 1
			if next > P {
				next = P
			}
			widths = append(widths, next)
		}
		p := workload.StepWidths(widths, rng.IntRange(L, 3*L))
		// Adversary: starve mostly, flood occasionally.
		flood := rng.IntRange(5, 9)
		availFn := func(q int) int {
			if q%flood == 0 {
				return P
			}
			return 2
		}
		a := alloc.NewAvailabilityTrace(P, availFn, "adversary")
		res, err := RunSingle(job.NewRun(p), feedback.NewAControl(r), sched.BGreedy(), a,
			SingleConfig{L: L, KeepTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		cl := metrics.TransitionFactorFromQuanta(res.Quanta)
		trimTerm := metrics.Theorem3TrimTerm(res.CriticalPath, cl, r)
		avail := make([]int, res.NumQuanta)
		for q := 1; q <= res.NumQuanta; q++ {
			v := availFn(q)
			if v < 1 {
				v = 1
			}
			if v > P {
				v = P
			}
			avail[q-1] = v
		}
		pTrim := metrics.TrimmedAvailability(avail, L, trimTerm+L)
		bound := metrics.Theorem3RuntimeBound(res.Work, res.CriticalPath, cl, r, L, pTrim)
		if pTrim > 0 {
			nonVacuous++
		}
		if float64(res.Runtime) > bound+1e-6 {
			t.Fatalf("trial %d: runtime %d > bound %v (C_L=%v r=%v P̃=%v)",
				trial, res.Runtime, bound, cl, r, pTrim)
		}
	}
	if nonVacuous < 8 {
		t.Fatalf("only %d/15 trials exercised a finite bound — test is vacuous", nonVacuous)
	}
}

// TestABGBeatsAGreedyOnWaste is the headline claim at unit-test scale: on
// fork-join jobs ABG wastes fewer processor cycles than A-Greedy.
func TestABGBeatsAGreedyOnWaste(t *testing.T) {
	rng := xrand.New(53)
	var abgWaste, agWaste float64
	const L = 100
	for trial := 0; trial < 12; trial++ {
		w := rng.IntRange(10, 60)
		params := workload.ScaledJobParams(w, L, 1)
		phases := workload.GenPhases(rng.Split(), params)
		p := workload.BuildForkJoin(phases)
		ra, err := RunSingle(job.NewRun(p), feedback.NewAControl(0.2), sched.BGreedy(),
			alloc.NewUnconstrained(128), SingleConfig{L: L})
		if err != nil {
			t.Fatal(err)
		}
		rg, err := RunSingle(job.NewRun(p), feedback.DefaultAGreedy(), sched.Greedy(),
			alloc.NewUnconstrained(128), SingleConfig{L: L})
		if err != nil {
			t.Fatal(err)
		}
		abgWaste += ra.NormalizedWaste()
		agWaste += rg.NormalizedWaste()
	}
	if abgWaste >= agWaste {
		t.Fatalf("ABG waste %v >= A-Greedy waste %v", abgWaste, agWaste)
	}
}
