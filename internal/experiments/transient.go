package experiments

import (
	"fmt"
	"io"

	"abg/internal/alloc"
	"abg/internal/control"
	"abg/internal/job"
	"abg/internal/sim"
	"abg/internal/table"
	"abg/internal/trace"
	"abg/internal/workload"
)

// TransientResult is the outcome of the constant-parallelism transient
// experiments (Figures 1 and 4): the request traces of both schedulers on a
// job whose parallelism stays constant, plus the control-theoretic metrics
// of §4 measured on those traces.
type TransientResult struct {
	// Width is the job's constant parallelism (the target the requests
	// should converge to).
	Width int
	// Quanta is the number of scheduling quanta the traces cover.
	Quanta int
	// ABGRequests and AGreedyRequests are the d(q) traces (one value per
	// quantum, first quantum's request is d(1)=1).
	ABGRequests, AGreedyRequests []float64
	// ABG and AGreedy are the measured transient/steady-state metrics
	// against the target Width.
	ABG, AGreedy control.ResponseMetrics
	// ABGOscillations and AGreedyOscillations count target crossings
	// (Figure 1's instability, quantified).
	ABGOscillations, AGreedyOscillations int
	// ABGTotalVariation and AGreedyTotalVariation measure total request
	// movement Σ|d(q+1)−d(q)| — proportional to processor reallocations.
	ABGTotalVariation, AGreedyTotalVariation float64
}

// Transient runs the constant-parallelism experiment for the given job
// width and reports the first `quanta` scheduling quanta (the figures' time
// horizon). The job itself is sized a little larger because the warm-up
// quanta, where the request is still below the parallelism, complete less
// work than a fully-allotted quantum.
func Transient(cfg Config, width, quanta int) (TransientResult, error) {
	res := TransientResult{Width: width, Quanta: quanta}
	profile := workload.ConstantJob(width, quanta+4, cfg.L)
	allocator := alloc.NewUnconstrained(cfg.P)

	abg, err := sim.RunSingle(job.NewRun(profile), cfg.abgPolicy(), cfg.abgScheduler(),
		allocator, sim.SingleConfig{L: cfg.L, KeepTrace: true})
	if err != nil {
		return res, fmt.Errorf("experiments: transient ABG run: %w", err)
	}
	ag, err := sim.RunSingle(job.NewRun(profile), cfg.agreedyPolicy(), cfg.agreedyScheduler(),
		allocator, sim.SingleConfig{L: cfg.L, KeepTrace: true})
	if err != nil {
		return res, fmt.Errorf("experiments: transient A-Greedy run: %w", err)
	}
	truncate := func(xs []float64) []float64 {
		if len(xs) > quanta {
			return xs[:quanta]
		}
		return xs
	}
	res.ABGRequests = truncate(abg.Requests())
	res.AGreedyRequests = truncate(ag.Requests())
	target := float64(width)
	res.ABG = control.Measure(res.ABGRequests, target)
	res.AGreedy = control.Measure(res.AGreedyRequests, target)
	res.ABGOscillations = control.OscillationCount(res.ABGRequests, target)
	res.AGreedyOscillations = control.OscillationCount(res.AGreedyRequests, target)
	res.ABGTotalVariation = control.TotalVariation(res.ABGRequests)
	res.AGreedyTotalVariation = control.TotalVariation(res.AGreedyRequests)
	return res, nil
}

// Fig1 reproduces Figure 1 — the request instability of A-Greedy on a
// constant-parallelism job, observed over a longer horizon.
func Fig1(cfg Config) (TransientResult, error) {
	return Transient(cfg, 12, 30)
}

// Fig4 reproduces Figure 4 — the transient and steady-state behaviour of
// ABG vs A-Greedy over 8 scheduling quanta on a constant-parallelism job
// (the paper uses r=0.2 and ρ=2; parallelism ~12 as read off the figure).
func Fig4(cfg Config) (TransientResult, error) {
	return Transient(cfg, 12, 8)
}

// Render writes the request traces and metrics as text.
func (r TransientResult) Render(w io.Writer) error {
	tb := table.New("quantum", "parallelism", "ABG request", "A-Greedy request")
	n := len(r.ABGRequests)
	if len(r.AGreedyRequests) > n {
		n = len(r.AGreedyRequests)
	}
	at := func(xs []float64, i int) string {
		if i < len(xs) {
			return fmt.Sprintf("%.3f", xs[i])
		}
		return "-"
	}
	for i := 0; i < n; i++ {
		tb.AddRow(fmt.Sprintf("%d", i+1), fmt.Sprintf("%d", r.Width),
			at(r.ABGRequests, i), at(r.AGreedyRequests, i))
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	mt := table.New("metric", "ABG", "A-Greedy")
	mt.AddRowf("steady-state error", r.ABG.SteadyStateError, r.AGreedy.SteadyStateError)
	mt.AddRowf("max overshoot", r.ABG.MaxOvershoot, r.AGreedy.MaxOvershoot)
	mt.AddRowf("settling time (quanta)", r.ABG.SettlingTime, r.AGreedy.SettlingTime)
	mt.AddRowf("oscillations (target crossings)", r.ABGOscillations, r.AGreedyOscillations)
	mt.AddRowf("total request variation", r.ABGTotalVariation, r.AGreedyTotalVariation)
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return mt.Render(w)
}

// Series returns both request traces against the quantum number.
func (r TransientResult) Series() []trace.Series {
	requests := func(name string, ds []float64) trace.Series {
		return curve(name, len(ds), func(i int) (float64, float64) { return float64(i + 1), ds[i] })
	}
	return []trace.Series{requests("abg-request", r.ABGRequests), requests("agreedy-request", r.AGreedyRequests)}
}
