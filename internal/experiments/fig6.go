package experiments

import (
	"fmt"
	"io"

	"abg/internal/alloc"
	"abg/internal/job"
	"abg/internal/metrics"
	"abg/internal/parallel"
	"abg/internal/sim"
	"abg/internal/stats"
	"abg/internal/table"
	"abg/internal/trace"
	"abg/internal/workload"
	"abg/internal/xrand"
)

// Fig6Config sizes the multiprogrammed experiment.
type Fig6Config struct {
	Config
	// NumSets is the number of job sets (paper: 5000).
	NumSets int
	// LoadMin..LoadMax is the range of target loads the sets are drawn from.
	LoadMin, LoadMax float64
	// Shrink divides phase lengths of the jobs inside sets (sets use smaller
	// jobs than the standalone Figure 5 runs).
	Shrink int
	// Bins is the number of load bins used to average the curves.
	Bins int
	// ReleaseSpread, when positive, draws each job's release time uniformly
	// from [0, ReleaseSpread·L·|J|] instead of releasing the whole set at
	// time 0 — the arbitrary-release-times regime of Theorem 5's makespan
	// bound. With releases, the response-time normalisation switches to the
	// release-valid lower bound (mean critical path).
	ReleaseSpread float64
}

// DefaultFig6Config returns the paper's Figure 6 setup (at the paper's
// 5000-set count; reduce NumSets for quick runs). Shrink stays at 1: the
// jobs inside the sets must keep the paper-relative phase scale (0.5–2
// quanta per phase) or A-Greedy's warm-up dominates the small jobs and
// inflates ABG's light-load advantage far beyond the paper's 10–15% (see
// EXPERIMENTS.md).
func DefaultFig6Config() Fig6Config {
	return Fig6Config{
		Config:  Defaults(),
		NumSets: 5000,
		LoadMin: 0.2, LoadMax: 6.5,
		Shrink: 1,
		Bins:   16,
	}
}

// Fig6Set is the outcome of one job set under both schedulers.
type Fig6Set struct {
	Load          float64 // realised load of the set
	Jobs          int
	ABGMakespan   float64 // makespan / M*
	AGMakespan    float64
	ABGResponse   float64 // mean response time / R*
	AGResponse    float64
	MakespanRatio float64 // A-Greedy / ABG (6b)
	ResponseRatio float64 // A-Greedy / ABG (6d)
	// ABGFairness / AGFairness are Jain's fairness indices over per-job
	// slowdowns (response / T∞) — an extension metric: how evenly each
	// scheduler spreads the multiprogramming penalty.
	ABGFairness, AGFairness float64
}

// Fig6Result aggregates the multiprogrammed sweep.
type Fig6Result struct {
	Sets []Fig6Set
	// Binned curves: x = load, y = mean normalized makespan / response.
	ABGMakespanCurve, AGMakespanCurve []stats.Point
	ABGResponseCurve, AGResponseCurve []stats.Point
	MakespanRatioCurve                []stats.Point
	ResponseRatioCurve                []stats.Point
	// LightLoadMakespanGain / LightLoadResponseGain are the average
	// advantage of ABG at loads ≤ 1 (the paper reports 10–15%): the mean of
	// (A-Greedy/ABG − 1).
	LightLoadMakespanGain, LightLoadResponseGain float64
	// HeavyLoadMakespanGain is the same for loads ≥ 3 (the paper finds the
	// schedulers comparable there).
	HeavyLoadMakespanGain, HeavyLoadResponseGain float64
	// MeanABGFairness / MeanAGFairness average Jain's slowdown-fairness
	// index over all sets (extension metric; 1 = perfectly even).
	MeanABGFairness, MeanAGFairness float64
}

// Fig6 runs the multiprogrammed experiment: NumSets job sets with target
// loads drawn uniformly from [LoadMin, LoadMax], each batched (all releases
// at 0) and space-shared under dynamic equi-partitioning, once per
// scheduler. Makespan and mean response time are normalised by the
// theoretical lower bounds. Sets are simulated concurrently; the result is
// deterministic in cfg.Seed.
func Fig6(cfg Fig6Config) (Fig6Result, error) {
	if cfg.NumSets < 1 {
		return Fig6Result{}, fmt.Errorf("experiments: Fig6 needs at least one set")
	}
	if cfg.Bins < 1 {
		cfg.Bins = 12
	}
	if cfg.Shrink < 1 {
		cfg.Shrink = 1
	}
	type task struct {
		seed uint64
		load float64
	}
	root := xrand.New(cfg.Seed)
	tasks := make([]task, cfg.NumSets)
	for i := range tasks {
		tasks[i] = task{seed: root.Uint64(), load: cfg.LoadMin + (cfg.LoadMax-cfg.LoadMin)*root.Float64()}
	}
	results, err := parallel.Map(cfg.NumSets, func(ti int) (Fig6Set, error) {
		return cfg.runSet(tasks[ti].seed, tasks[ti].load)
	})
	if err != nil {
		return Fig6Result{}, err
	}

	res := Fig6Result{Sets: results}
	mkABG := stats.NewBinnedCurve(cfg.LoadMin, cfg.LoadMax, cfg.Bins)
	mkAG := stats.NewBinnedCurve(cfg.LoadMin, cfg.LoadMax, cfg.Bins)
	rsABG := stats.NewBinnedCurve(cfg.LoadMin, cfg.LoadMax, cfg.Bins)
	rsAG := stats.NewBinnedCurve(cfg.LoadMin, cfg.LoadMax, cfg.Bins)
	mkRatio := stats.NewBinnedCurve(cfg.LoadMin, cfg.LoadMax, cfg.Bins)
	rsRatio := stats.NewBinnedCurve(cfg.LoadMin, cfg.LoadMax, cfg.Bins)
	var lightM, lightR, heavyM, heavyR stats.Welford
	var fairABG, fairAG stats.Welford
	for _, s := range results {
		fairABG.Add(s.ABGFairness)
		fairAG.Add(s.AGFairness)
		mkABG.Add(s.Load, s.ABGMakespan)
		mkAG.Add(s.Load, s.AGMakespan)
		rsABG.Add(s.Load, s.ABGResponse)
		rsAG.Add(s.Load, s.AGResponse)
		mkRatio.Add(s.Load, s.MakespanRatio)
		rsRatio.Add(s.Load, s.ResponseRatio)
		if s.Load <= 1 {
			lightM.Add(s.MakespanRatio - 1)
			lightR.Add(s.ResponseRatio - 1)
		}
		if s.Load >= 3 {
			heavyM.Add(s.MakespanRatio - 1)
			heavyR.Add(s.ResponseRatio - 1)
		}
	}
	res.ABGMakespanCurve = mkABG.Points()
	res.AGMakespanCurve = mkAG.Points()
	res.ABGResponseCurve = rsABG.Points()
	res.AGResponseCurve = rsAG.Points()
	res.MakespanRatioCurve = mkRatio.Points()
	res.ResponseRatioCurve = rsRatio.Points()
	res.LightLoadMakespanGain = lightM.Mean()
	res.LightLoadResponseGain = lightR.Mean()
	res.HeavyLoadMakespanGain = heavyM.Mean()
	res.HeavyLoadResponseGain = heavyR.Mean()
	res.MeanABGFairness = fairABG.Mean()
	res.MeanAGFairness = fairAG.Mean()
	return res, nil
}

// runSet simulates one job set under both schedulers.
func (cfg Fig6Config) runSet(seed uint64, targetLoad float64) (Fig6Set, error) {
	rng := xrand.New(seed)
	profiles := workload.GenJobSet(rng, workload.SetParams{
		TargetLoad: targetLoad, P: cfg.P, QuantumLen: cfg.L,
		CLMin: 2, CLMax: 100, Shrink: cfg.Shrink, MaxJobs: cfg.P,
	})
	releases := make([]int64, len(profiles))
	if cfg.ReleaseSpread > 0 {
		span := cfg.ReleaseSpread * float64(cfg.L) * float64(len(profiles))
		for i := range releases {
			releases[i] = int64(rng.Float64() * span)
		}
	}
	infos := make([]metrics.JobInfo, len(profiles))
	for i, p := range profiles {
		infos[i] = metrics.JobInfo{Work: p.Work(), CriticalPath: p.CriticalPathLen(), Release: releases[i]}
	}
	mStar := metrics.MakespanLowerBound(infos, cfg.P)
	var rStar float64
	if cfg.ReleaseSpread > 0 {
		rStar = metrics.ResponseLowerBoundReleased(infos)
	} else {
		rStar = metrics.ResponseLowerBound(infos, cfg.P)
	}
	set := Fig6Set{Load: workload.Load(profiles, cfg.P), Jobs: len(profiles)}

	run := func(abg bool) (sim.MultiResult, error) {
		specs := make([]sim.JobSpec, len(profiles))
		for i, p := range profiles {
			spec := sim.JobSpec{Name: fmt.Sprintf("j%d", i), Inst: job.NewRun(p), Release: releases[i]}
			if abg {
				spec.Policy, spec.Sched = cfg.abgPolicy(), cfg.abgScheduler()
			} else {
				spec.Policy, spec.Sched = cfg.agreedyPolicy(), cfg.agreedyScheduler()
			}
			specs[i] = spec
		}
		sweepSetActive.Add(1)
		defer sweepSetActive.Add(-1)
		res, err := sim.RunMulti(specs, sim.MultiConfig{
			P: cfg.P, L: cfg.L, Allocator: alloc.DynamicEquiPartition{},
		})
		if err == nil {
			recordSet(len(specs), res.QuantaElapsed, res.Makespan, res.TotalWaste)
		}
		return res, err
	}
	abgRes, err := run(true)
	if err != nil {
		return set, err
	}
	agRes, err := run(false)
	if err != nil {
		return set, err
	}
	set.ABGMakespan = float64(abgRes.Makespan) / mStar
	set.AGMakespan = float64(agRes.Makespan) / mStar
	set.ABGResponse = abgRes.MeanResponse() / rStar
	set.AGResponse = agRes.MeanResponse() / rStar
	set.MakespanRatio = float64(agRes.Makespan) / float64(abgRes.Makespan)
	set.ResponseRatio = agRes.MeanResponse() / abgRes.MeanResponse()
	set.ABGFairness = slowdownFairness(abgRes)
	set.AGFairness = slowdownFairness(agRes)
	return set, nil
}

// slowdownFairness computes Jain's index over per-job slowdowns.
func slowdownFairness(res sim.MultiResult) float64 {
	slow := make([]float64, len(res.Jobs))
	for i, j := range res.Jobs {
		slow[i] = float64(j.Response) / float64(j.CriticalPath)
	}
	return metrics.JainFairness(slow)
}

// Render writes the Figure 6 curves and headline averages as text.
func (r Fig6Result) Render(w io.Writer) error {
	tb := table.New("load", "M/M* ABG", "M/M* A-Greedy", "ratio(6b)",
		"R/R* ABG", "R/R* A-Greedy", "ratio(6d)")
	at := func(pts []stats.Point, i int) interface{} {
		if i < len(pts) {
			return pts[i].Y
		}
		return "-"
	}
	for i := range r.ABGMakespanCurve {
		tb.AddRowf(r.ABGMakespanCurve[i].X,
			at(r.ABGMakespanCurve, i), at(r.AGMakespanCurve, i), at(r.MakespanRatioCurve, i),
			at(r.ABGResponseCurve, i), at(r.AGResponseCurve, i), at(r.ResponseRatioCurve, i))
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\nSlowdown fairness (Jain): ABG %.3f, A-Greedy %.3f\n",
		r.MeanABGFairness, r.MeanAGFairness); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "Light load (≤1): ABG better by %.1f%% makespan, %.1f%% mean response (paper: 10–15%%)\n"+
		"Heavy load (≥3): ABG better by %.1f%% makespan, %.1f%% mean response (paper: comparable)\n",
		100*r.LightLoadMakespanGain, 100*r.LightLoadResponseGain,
		100*r.HeavyLoadMakespanGain, 100*r.HeavyLoadResponseGain)
	return err
}

// Series returns the binned Figure 6 curves against the load.
func (r Fig6Result) Series() []trace.Series {
	binned := func(name string, pts []stats.Point) trace.Series {
		return curve(name, len(pts), func(i int) (float64, float64) { return pts[i].X, pts[i].Y })
	}
	return []trace.Series{
		binned("abg-makespan", r.ABGMakespanCurve),
		binned("agreedy-makespan", r.AGMakespanCurve),
		binned("makespan-ratio", r.MakespanRatioCurve),
		binned("abg-response", r.ABGResponseCurve),
		binned("agreedy-response", r.AGResponseCurve),
		binned("response-ratio", r.ResponseRatioCurve),
	}
}
