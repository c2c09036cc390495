package fault

import (
	"math"
	"testing"

	"abg/internal/alloc"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/sched"
	"abg/internal/sim"
	"abg/internal/workload"
)

// reconvergeQuanta is Theorem 3's bound: the number of quanta the integral
// controller needs to shrink an error e0 below eps at rate r,
// N = ⌈log(e0/eps) / log(1/r)⌉.
func reconvergeQuanta(e0, eps, r float64) int {
	return int(math.Ceil(math.Log(e0/eps) / math.Log(1/r)))
}

// TestAControlGeometricReconvergence drives the controller in isolation
// through a capacity-step disturbance: converge on parallelism A1, step the
// measurement to A2, and check the error decays geometrically at exactly
// rate r — so re-convergence takes the O(log_{1/r}(e0/eps)) quanta of
// Theorem 3, for responsiveness settings across the whole range.
func TestAControlGeometricReconvergence(t *testing.T) {
	const a1, a2 = 8.0, 40.0
	stats := func(a float64) *sched.QuantumStats {
		return &sched.QuantumStats{Length: 100, Steps: 100, Allotment: 64,
			Work: int64(a * 100), CPL: 100}
	}
	for _, r := range []float64{0.05, 0.2, 0.5, 0.8} {
		pol := feedback.NewAControl(r)
		d := pol.InitialRequest()
		for q := 0; q < 400; q++ {
			d = pol.NextRequest(stats(a1))
		}
		if math.Abs(d-a1) > 1e-6 {
			t.Fatalf("r=%v: did not converge on A1: d=%v", r, d)
		}

		// Step disturbance: the measured parallelism jumps to A2.
		e0 := math.Abs(d - a2)
		e := e0
		const eps = 0.5
		n := reconvergeQuanta(e0, eps, r)
		for k := 1; k <= n+5; k++ {
			d = pol.NextRequest(stats(a2))
			next := math.Abs(d - a2)
			// d(q+1) − A = r·(d(q) − A): per-quantum decay is exactly r,
			// up to float rounding.
			if e > 1e-6 {
				if ratio := next / e; math.Abs(ratio-r) > 1e-9 {
					t.Fatalf("r=%v quantum %d: error ratio %v, want %v", r, k, ratio, r)
				}
			}
			e = next
			if k == n && e > eps {
				t.Fatalf("r=%v: error %v > eps %v after Theorem-3 bound N=%d", r, e, eps, n)
			}
		}
	}
}

// TestRestartReconvergence checks the full pipeline: a mid-DAG failure
// resets the feedback loop, and because the engine restarts from a fresh
// instance with a reset policy, the post-restart request trace must equal
// the run's opening trace exactly — and reach the pre-restart steady request
// within Theorem 3's quantum bound.
func TestRestartReconvergence(t *testing.T) {
	const width, restartQ = 20, 40
	for _, r := range []float64{0.2, 0.8} {
		profile := workload.ConstantJob(width, 120, 50)
		plan := Plan{RestartAt: []int{restartQ}, MaxRestarts: 1}
		cfg := sim.SingleConfig{L: 50, KeepTrace: true}
		cfg.Restart = &sim.RestartPlan{
			At:  plan.RestartHook(0),
			New: func() job.Instance { return job.NewRun(profile) },
			Max: plan.MaxRestarts,
		}
		res, err := sim.RunSingle(job.NewRun(profile), feedback.NewAControl(r),
			sched.BGreedy(), alloc.NewUnconstrained(64), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Restarts != 1 || res.LostWork == 0 {
			t.Fatalf("r=%v: restart not injected: %d restarts, lost %d", r, res.Restarts, res.LostWork)
		}
		// Work conservation end to end: executed = T1 + lost.
		var executed int64
		for _, st := range res.Quanta {
			executed += st.Work
		}
		if executed != res.Work+res.LostWork {
			t.Fatalf("r=%v: executed %d != T1 %d + lost %d", r, executed, res.Work, res.LostWork)
		}

		req := res.Requests()
		// The restart resets the controller: quantum restartQ+1 repeats the
		// admission request, and the whole re-convergence transient replays
		// the opening of the run exactly (same job, stateless allocator).
		for k := 0; k < 30; k++ {
			if req[restartQ+k] != req[k] {
				t.Fatalf("r=%v: post-restart quantum %d request %v != opening request %v",
					r, restartQ+k+1, req[restartQ+k], req[k])
			}
		}
		// Theorem 3 timing against the pre-restart steady request.
		steady := req[restartQ-1]
		e0 := math.Abs(steady - req[restartQ])
		const eps = 1.0
		if e0 <= eps {
			t.Fatalf("r=%v: restart caused no disturbance: e0=%v", r, e0)
		}
		n := reconvergeQuanta(e0, eps, r)
		if got := math.Abs(req[restartQ+n] - steady); got > eps {
			t.Fatalf("r=%v: %v from steady after N=%d quanta, want <= %v", r, got, n, eps)
		}
	}
}
