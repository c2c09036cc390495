package sim

import (
	"reflect"
	"testing"

	"abg/internal/alloc"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/obs"
	"abg/internal/sched"
	"abg/internal/workload"
	"abg/internal/xrand"
)

func TestAdaptiveLValidation(t *testing.T) {
	p := workload.ConstantJob(2, 1, 10)
	bad := []AdaptiveLConfig{
		{LMin: 0, LMax: 10},
		{LMin: 10, LMax: 5},
		{LMin: 5, LMax: 10, Grow: 0.5},
		{LMin: 5, LMax: 10, StableTol: -1},
	}
	for i, cfg := range bad {
		if _, err := RunSingleAdaptiveL(job.NewRun(p), feedback.NewAControl(0.2), sched.BGreedy(),
			alloc.NewUnconstrained(4), cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestAdaptiveLGrowsOnStableRequests(t *testing.T) {
	// Constant parallelism: after convergence the requests stop moving and
	// the quantum length must ramp from LMin to LMax.
	p := workload.ConstantJob(8, 60, 50)
	res, err := RunSingleAdaptiveL(job.NewRun(p), feedback.NewAControl(0.2), sched.BGreedy(),
		alloc.NewUnconstrained(32), AdaptiveLConfig{LMin: 25, LMax: 400, KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	sawMax := false
	for _, q := range res.Quanta {
		if q.Length == 400 {
			sawMax = true
		}
		if q.Length < 25 || q.Length > 400 {
			t.Fatalf("quantum length %d out of bounds", q.Length)
		}
	}
	if !sawMax {
		t.Fatal("quantum length never reached LMax on a stable job")
	}
	// Fewer feedback actions than fixed LMin would need.
	fixed, err := RunSingle(job.NewRun(p), feedback.NewAControl(0.2), sched.BGreedy(),
		alloc.NewUnconstrained(32), SingleConfig{L: 25, KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumQuanta >= fixed.NumQuanta {
		t.Fatalf("adaptive L used %d quanta, fixed LMin used %d", res.NumQuanta, fixed.NumQuanta)
	}
}

func TestAdaptiveLResetsOnParallelismChange(t *testing.T) {
	// A job that steps between two very different widths keeps disturbing
	// the request, so the length must fall back to LMin after each change.
	p := workload.StepWidths([]int{2, 40, 2, 40, 2, 40}, 600)
	res, err := RunSingleAdaptiveL(job.NewRun(p), feedback.NewAControl(0.2), sched.BGreedy(),
		alloc.NewUnconstrained(64), AdaptiveLConfig{LMin: 50, LMax: 800, KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	resets := 0
	for i := 1; i < len(res.Quanta); i++ {
		if res.Quanta[i].Length == 50 && res.Quanta[i-1].Length > 50 {
			resets++
		}
	}
	if resets == 0 {
		t.Fatal("quantum length never reset on parallelism changes")
	}
}

func TestAdaptiveLAccounting(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 5; trial++ {
		p := workload.GenJob(rng, workload.ScaledJobParams(rng.IntRange(2, 10), 50, 1))
		res, err := RunSingleAdaptiveL(job.NewRun(p), feedback.NewAControl(0.2), sched.BGreedy(),
			alloc.NewUnconstrained(64), AdaptiveLConfig{LMin: 20, LMax: 200, KeepTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.AllottedCycles-res.Work != res.Waste {
			t.Fatal("accounting identity broken")
		}
		var steps int64
		var work int64
		for _, q := range res.Quanta {
			steps += int64(q.Steps)
			work += q.Work
		}
		if steps != res.Runtime || work != res.Work {
			t.Fatal("trace totals disagree")
		}
	}
}

func TestAdaptiveLMaxQuanta(t *testing.T) {
	p := workload.ConstantJob(2, 20, 20)
	_, err := RunSingleAdaptiveL(job.NewRun(p), feedback.NewStatic(1), sched.BGreedy(),
		alloc.NewUnconstrained(4), AdaptiveLConfig{LMin: 5, LMax: 10, MaxQuanta: 2})
	if err == nil {
		t.Fatal("expected max-quanta error")
	}
}

func TestAdaptiveLDefaultsApplied(t *testing.T) {
	cfg := AdaptiveLConfig{LMin: 5, LMax: 50}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Grow != 2 || cfg.StableTol != 0.05 || cfg.MaxQuanta != DefaultMaxQuanta {
		t.Fatalf("defaults: %+v", cfg)
	}
}

// TestAdaptiveLFixedLengthMatchesRunSingle: with LMin = LMax = L the
// adaptive-length loop must be RunSingle at quantum length L — the same
// result, trace and event stream — for both feedback policies, on a job
// whose parallelism steps and on a random fork-join job, with and without
// an allocator that deprives the job.
func TestAdaptiveLFixedLengthMatchesRunSingle(t *testing.T) {
	const l = 50
	profiles := map[string]*job.Profile{
		"step-widths": workload.StepWidths([]int{2, 40, 2, 40}, 300),
		"fork-join":   workload.GenJob(xrand.New(11), workload.ScaledJobParams(6, l, 1)),
	}
	policies := map[string]func() (feedback.Policy, sched.Scheduler){
		"a-control": func() (feedback.Policy, sched.Scheduler) { return feedback.NewAControl(0.2), sched.BGreedy() },
		"a-greedy":  func() (feedback.Policy, sched.Scheduler) { return feedback.NewAGreedy(2, 0.8), sched.Greedy() },
	}
	allocators := map[string]alloc.Single{
		"unconstrained": alloc.NewUnconstrained(64),
		"alternating":   alloc.NewAvailabilityTrace(64, func(q int) int { return 4 + 12*(q%3) }, "alt"),
	}
	record := func() (*obs.Bus, *obs.Recorder) {
		bus := obs.NewBus()
		rec := &obs.Recorder{}
		bus.Subscribe(rec)
		return bus, rec
	}
	for pn, p := range profiles {
		for poln, mk := range policies {
			for an, al := range allocators {
				busF, recF := record()
				pol, sc := mk()
				fixed, err := RunSingle(job.NewRun(p), pol, sc, al,
					SingleConfig{L: l, KeepTrace: true, Obs: busF})
				if err != nil {
					t.Fatal(err)
				}
				busA, recA := record()
				pol, sc = mk()
				adaptive, err := RunSingleAdaptiveL(job.NewRun(p), pol, sc, al,
					AdaptiveLConfig{LMin: l, LMax: l, KeepTrace: true, Obs: busA})
				if err != nil {
					t.Fatal(err)
				}
				if fixed.NumQuanta < 2 {
					t.Fatalf("%s/%s/%s: degenerate run of %d quanta", pn, poln, an, fixed.NumQuanta)
				}
				if !reflect.DeepEqual(adaptive, fixed) {
					t.Errorf("%s/%s/%s: results diverge:\n got %+v\nwant %+v", pn, poln, an, adaptive, fixed)
				}
				if !reflect.DeepEqual(recA.Events(), recF.Events()) {
					t.Errorf("%s/%s/%s: event streams diverge (%d events, want %d)",
						pn, poln, an, len(recA.Events()), len(recF.Events()))
				}
			}
		}
	}
}
