package experiments

import (
	"fmt"
	"io"

	"abg/internal/alloc"
	"abg/internal/job"
	"abg/internal/parallel"
	"abg/internal/sim"
	"abg/internal/stats"
	"abg/internal/table"
	"abg/internal/trace"
	"abg/internal/workload"
	"abg/internal/xrand"
)

// Fig5Config sizes the single-job sweep over transition factors.
type Fig5Config struct {
	Config
	// CLValues are the transition factors to sweep (paper: 2..100).
	CLValues []int
	// JobsPerCL is the number of random jobs per transition factor
	// (paper: 50).
	JobsPerCL int
	// Shrink divides the phase lengths (1 = paper scale; tests use more).
	Shrink int
}

// DefaultFig5Config returns the paper's Figure 5 setup.
func DefaultFig5Config() Fig5Config {
	cfg := Fig5Config{Config: Defaults(), JobsPerCL: 50, Shrink: 1}
	for cl := 2; cl <= 100; cl++ {
		cfg.CLValues = append(cfg.CLValues, cl)
	}
	return cfg
}

// Fig5Run is the outcome of one job under one scheduler.
type Fig5Run struct {
	CL      int     // configured transition factor (parallel width)
	Runtime float64 // T / T∞ (Figure 5(a) y-axis)
	Waste   float64 // W / T1 (Figure 5(c) y-axis)
}

// Fig5Point is one averaged point of the Figure 5 curves.
type Fig5Point struct {
	CL                    int
	ABGRuntime, AGRuntime float64 // mean normalized running time
	ABGWaste, AGWaste     float64 // mean normalized waste
	RuntimeRatio          float64 // mean A-Greedy/ABG running-time ratio (5b)
	WasteRatio            float64 // mean A-Greedy/ABG waste ratio (5d)
}

// Fig5Result aggregates the whole sweep.
type Fig5Result struct {
	Points []Fig5Point
	// RuntimeImprovement is the average fractional running-time improvement
	// of ABG over A-Greedy, 1 − mean(T_ABG/T_AG); the paper reports ~20%.
	RuntimeImprovement float64
	// WasteReduction is 1 − mean(W_ABG/W_AG); the paper reports ~50%.
	WasteReduction float64
}

// Fig5 runs the single-job sweep: for every transition factor, JobsPerCL
// random fork-join jobs are executed alone on the machine under both ABG
// (A-Control + B-Greedy) and A-Greedy (mul-inc/mul-dec + greedy), with every
// request granted (unconstrained allocator) as in the paper's first
// simulation set. Jobs are simulated concurrently across CPUs;
// the result is deterministic in cfg.Seed.
func Fig5(cfg Fig5Config) (Fig5Result, error) {
	if cfg.JobsPerCL < 1 || len(cfg.CLValues) == 0 {
		return Fig5Result{}, fmt.Errorf("experiments: empty Fig5 config")
	}
	if cfg.Shrink < 1 {
		cfg.Shrink = 1
	}
	type task struct {
		clIdx int
		seed  uint64
		cl    int
	}
	// Pre-draw per-job seeds sequentially so parallel execution stays
	// deterministic.
	root := xrand.New(cfg.Seed)
	var tasks []task
	for i, cl := range cfg.CLValues {
		for j := 0; j < cfg.JobsPerCL; j++ {
			tasks = append(tasks, task{clIdx: i, seed: root.Uint64(), cl: cl})
		}
	}
	type outcome struct {
		clIdx    int
		abg, ag  Fig5Run
		err      error
		rRatio   float64
		wRatio   float64
		hasRatio bool
	}
	outcomes := make([]outcome, len(tasks))
	allocator := alloc.NewUnconstrained(cfg.P)

	parallel.ForEach(len(tasks), func(ti int) {
		tk := tasks[ti]
		rng := xrand.New(tk.seed)
		profile := workload.GenJob(rng, workload.ScaledJobParams(tk.cl, cfg.L, cfg.Shrink))
		runOne := func(pol string) (Fig5Run, error) {
			var (
				r   sim.SingleResult
				err error
			)
			sweepActive.Add(1)
			defer sweepActive.Add(-1)
			if pol == "abg" {
				r, err = sim.RunSingle(job.NewRun(profile), cfg.abgPolicy(),
					cfg.abgScheduler(), allocator, sim.SingleConfig{L: cfg.L})
			} else {
				r, err = sim.RunSingle(job.NewRun(profile), cfg.agreedyPolicy(),
					cfg.agreedyScheduler(), allocator, sim.SingleConfig{L: cfg.L})
			}
			if err == nil {
				recordSingle(r.NumQuanta, r.Runtime, r.Waste)
			}
			return Fig5Run{CL: tk.cl, Runtime: r.NormalizedRuntime(), Waste: r.NormalizedWaste()}, err
		}
		abg, err := runOne("abg")
		if err != nil {
			outcomes[ti] = outcome{err: err}
			return
		}
		ag, err := runOne("agreedy")
		if err != nil {
			outcomes[ti] = outcome{err: err}
			return
		}
		oc := outcome{clIdx: tk.clIdx, abg: abg, ag: ag}
		if abg.Runtime > 0 && abg.Waste > 0 {
			oc.rRatio = ag.Runtime / abg.Runtime
			oc.wRatio = ag.Waste / abg.Waste
			oc.hasRatio = true
		}
		outcomes[ti] = oc
	})

	// Reduce.
	n := len(cfg.CLValues)
	agg := make([]struct {
		abgRT, agRT, abgW, agW, rr, wr stats.Welford
	}, n)
	var invRT, invW stats.Welford // ABG/AG ratios for the headline numbers
	for _, oc := range outcomes {
		if oc.err != nil {
			return Fig5Result{}, oc.err
		}
		a := &agg[oc.clIdx]
		a.abgRT.Add(oc.abg.Runtime)
		a.agRT.Add(oc.ag.Runtime)
		a.abgW.Add(oc.abg.Waste)
		a.agW.Add(oc.ag.Waste)
		if oc.hasRatio {
			a.rr.Add(oc.rRatio)
			a.wr.Add(oc.wRatio)
			invRT.Add(oc.abg.Runtime / oc.ag.Runtime)
			invW.Add(oc.abg.Waste / oc.ag.Waste)
		}
	}
	res := Fig5Result{Points: make([]Fig5Point, n)}
	for i, cl := range cfg.CLValues {
		a := &agg[i]
		res.Points[i] = Fig5Point{
			CL:         cl,
			ABGRuntime: a.abgRT.Mean(), AGRuntime: a.agRT.Mean(),
			ABGWaste: a.abgW.Mean(), AGWaste: a.agW.Mean(),
			RuntimeRatio: a.rr.Mean(), WasteRatio: a.wr.Mean(),
		}
	}
	res.RuntimeImprovement = 1 - invRT.Mean()
	res.WasteReduction = 1 - invW.Mean()
	return res, nil
}

// Render writes the Figure 5 curves as a table plus the headline averages.
func (r Fig5Result) Render(w io.Writer) error {
	tb := table.New("C_L", "T/T∞ ABG", "T/T∞ A-Greedy", "ratio(5b)",
		"W/T1 ABG", "W/T1 A-Greedy", "ratio(5d)")
	for _, p := range r.Points {
		tb.AddRowf(p.CL, p.ABGRuntime, p.AGRuntime, p.RuntimeRatio,
			p.ABGWaste, p.AGWaste, p.WasteRatio)
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nABG average running-time improvement over A-Greedy: %.1f%% (paper: ~20%%)\n"+
		"ABG average waste reduction over A-Greedy: %.1f%% (paper: ~50%%)\n",
		100*r.RuntimeImprovement, 100*r.WasteReduction)
	return err
}

// Series returns the Figure 5 curves against the transition factor.
func (r Fig5Result) Series() []trace.Series {
	return tableSeries([]string{"abg-runtime", "agreedy-runtime", "runtime-ratio", "abg-waste", "agreedy-waste", "waste-ratio"},
		len(r.Points), func(i int) (float64, []float64) {
			p := r.Points[i]
			return float64(p.CL), []float64{p.ABGRuntime, p.AGRuntime, p.RuntimeRatio, p.ABGWaste, p.AGWaste, p.WasteRatio}
		})
}
