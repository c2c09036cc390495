package experiments

import (
	"fmt"
	"io"

	"abg/internal/alloc"
	"abg/internal/control"
	"abg/internal/fault"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/obs"
	"abg/internal/sched"
	"abg/internal/sim"
	"abg/internal/table"
	"abg/internal/trace"
	"abg/internal/workload"
	"abg/internal/xrand"
)

// ChaosConfig parameterises the chaos soak harness: the same seeded fault
// plan is replayed at every intensity in the sweep, against both schedulers,
// and the degradation of each is measured relative to its own fault-free
// baseline.
type ChaosConfig struct {
	Config
	// Plan is the full-intensity disturbance; each sweep point runs
	// Plan.Scale(intensity). Zero plan means no faults at any intensity.
	Plan fault.Plan
	// Intensities are the scale factors swept (0 is the frictionless
	// baseline and is always computed, listed or not).
	Intensities []float64
	// Jobs random fork-join jobs with transition factor CL, phase lengths
	// shrunk by Shrink, measure completion stretch and waste.
	Jobs, CL, Shrink int
	// Width and ProbeQuanta shape the constant-parallelism probe job that
	// measures the control metrics (request overshoot, re-convergence):
	// only against a constant target are they well defined.
	Width, ProbeQuanta int
	// Check attaches a fault.Checker to every run and fails the experiment
	// on any invariant violation.
	Check bool
}

// DefaultChaosConfig returns a moderate sweep over the default plan.
func DefaultChaosConfig() ChaosConfig {
	cfg := Defaults()
	return ChaosConfig{
		Config:      cfg,
		Plan:        DefaultChaosPlan(cfg.P, cfg.Seed),
		Intensities: []float64{0, 0.25, 0.5, 1},
		Jobs:        8, CL: 20, Shrink: 2,
		Width: 24, ProbeQuanta: 60,
		Check: true,
	}
}

// DefaultChaosPlan is the reference disturbance: random node churn taking up
// to half the machine, a control channel that drops a quarter of the
// request messages and delays or duplicates more, 30% multiplicative noise
// on the measured parallelism, and occasional job failures.
func DefaultChaosPlan(p int, seed uint64) fault.Plan {
	return fault.Plan{
		Seed:     seed,
		Capacity: fault.ChurnCapacity{P: p, MaxLoss: p / 2, Window: 16, Seed: seed},
		Drop:     0.25,
		Delay:    2, DelayProb: 0.15,
		Dup:         0.1,
		NoiseMul:    0.3,
		RestartProb: 0.01, MaxRestarts: 2,
	}
}

// ChaosCell is one scheduler's measurement at one intensity.
type ChaosCell struct {
	// Stretch is Σ runtime / Σ fault-free runtime over the random jobs.
	Stretch float64
	// Waste is Σ waste / Σ T1 over the random jobs.
	Waste float64
	// Overshoot is the probe job's maximal request excursion above its
	// constant parallelism, normalised by that parallelism.
	Overshoot float64
	// SettleQ is the probe's settling time in quanta: the first quantum
	// after which the request stays within 2% of the target — with faults
	// injected mid-run, the re-convergence time after the last disturbance.
	SettleQ int
	// Restarts counts injected job failures across all runs of the cell.
	Restarts int
}

// ChaosPoint is one intensity of the sweep.
type ChaosPoint struct {
	Intensity    float64
	ABG, AGreedy ChaosCell
}

// ChaosResult is the outcome of the chaos soak.
type ChaosResult struct {
	Plan   string // the full-intensity plan, in spec syntax
	Points []ChaosPoint
}

// chaosRunner pairs a scheduler stack with its label.
type chaosRunner struct {
	policy func() feedback.Policy
	sched  func() sched.Scheduler
}

// Chaos sweeps the fault plan over the intensities and measures how much
// each scheduler degrades. All randomness — workload and faults — derives
// from the config seed, so a repeated run renders a byte-identical report.
func Chaos(cfg ChaosConfig) (ChaosResult, error) {
	res := ChaosResult{Plan: cfg.Plan.String()}
	if cfg.Jobs < 1 || cfg.Width < 1 || cfg.ProbeQuanta < 1 {
		return res, fmt.Errorf("experiments: chaos config needs jobs, width, probe quanta ≥ 1")
	}
	rng := xrand.New(cfg.Seed)
	params := workload.ScaledJobParams(cfg.CL, cfg.L, max(cfg.Shrink, 1))
	profiles := make([]*job.Profile, cfg.Jobs)
	for i := range profiles {
		profiles[i] = workload.GenJob(rng, params)
	}
	probe := workload.ConstantJob(cfg.Width, cfg.ProbeQuanta, cfg.L)
	runners := map[string]chaosRunner{
		"abg":     {cfg.abgPolicy, cfg.abgScheduler},
		"agreedy": {cfg.agreedyPolicy, cfg.agreedyScheduler},
	}

	// Fault-free baselines (intensity 0), denominator of every stretch.
	base := make(map[string]int64, len(runners))
	for name, r := range runners {
		var sum int64
		for i, pf := range profiles {
			out, err := chaosRun(cfg, pf, r, fault.Plan{}, i, false)
			if err != nil {
				return res, fmt.Errorf("experiments: chaos baseline %s: %w", name, err)
			}
			sum += out.Runtime
		}
		base[name] = sum
	}

	for _, intensity := range cfg.Intensities {
		plan := cfg.Plan.Scale(intensity)
		point := ChaosPoint{Intensity: intensity}
		for name, r := range runners {
			var cell ChaosCell
			var runtime, waste, work int64
			for i, pf := range profiles {
				out, err := chaosRun(cfg, pf, r, plan, i, true)
				if err != nil {
					return res, fmt.Errorf("experiments: chaos %s@%g job %d: %w",
						name, intensity, i, err)
				}
				runtime += out.Runtime
				waste += out.Waste
				work += out.Work
				cell.Restarts += out.Restarts
			}
			if b := base[name]; b > 0 {
				cell.Stretch = float64(runtime) / float64(b)
			}
			if work > 0 {
				cell.Waste = float64(waste) / float64(work)
			}
			pr, err := chaosRun(cfg, probe, r, plan, cfg.Jobs, true)
			if err != nil {
				return res, fmt.Errorf("experiments: chaos %s@%g probe: %w", name, intensity, err)
			}
			cell.Restarts += pr.Restarts
			target := float64(cfg.Width)
			m := control.Measure(pr.Requests(), target)
			cell.Overshoot = m.MaxOvershoot / target
			cell.SettleQ = m.SettlingTime
			switch name {
			case "abg":
				point.ABG = cell
			case "agreedy":
				point.AGreedy = cell
			}
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

// chaosRun executes one single-job run under the plan. With check set a
// fault.Checker audits the run's event stream and its verdict becomes the
// returned error.
func chaosRun(cfg ChaosConfig, profile *job.Profile, r chaosRunner,
	plan fault.Plan, jobID int, check bool) (sim.SingleResult, error) {

	sc := sim.SingleConfig{L: cfg.L, KeepTrace: true, Capacity: plan.Capacity}
	var bus *obs.Bus
	var checker *fault.Checker
	if check && cfg.Check {
		bus = obs.NewBus()
		checker = fault.NewChecker(cfg.P, false)
		defer bus.Subscribe(checker)()
		sc.Obs = bus
	}
	if hook := plan.RestartHook(jobID); hook != nil {
		sc.Restart = &sim.RestartPlan{
			At:  hook,
			New: func() job.Instance { return job.NewRun(profile) },
			Max: plan.MaxRestarts,
		}
	}
	pol := plan.Policy(r.policy(), jobID, bus)
	out, err := sim.RunSingle(job.NewRun(profile), pol, r.sched(),
		alloc.NewUnconstrained(cfg.P), sc)
	if err != nil {
		return out, err
	}
	if checker != nil {
		if cerr := checker.Err(); cerr != nil {
			return out, cerr
		}
	}
	return out, nil
}

// Render writes the degradation table.
func (r ChaosResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "fault plan (intensity 1): %s\n\n", r.Plan); err != nil {
		return err
	}
	tb := table.New("intensity",
		"ABG stretch", "AG stretch",
		"ABG waste", "AG waste",
		"ABG overshoot", "AG overshoot",
		"ABG settle(q)", "AG settle(q)",
		"restarts")
	for _, p := range r.Points {
		tb.AddRow(
			fmt.Sprintf("%.2f", p.Intensity),
			fmt.Sprintf("%.3f", p.ABG.Stretch),
			fmt.Sprintf("%.3f", p.AGreedy.Stretch),
			fmt.Sprintf("%.3f", p.ABG.Waste),
			fmt.Sprintf("%.3f", p.AGreedy.Waste),
			fmt.Sprintf("%.3f", p.ABG.Overshoot),
			fmt.Sprintf("%.3f", p.AGreedy.Overshoot),
			fmt.Sprintf("%d", p.ABG.SettleQ),
			fmt.Sprintf("%d", p.AGreedy.SettleQ),
			fmt.Sprintf("%d", p.ABG.Restarts+p.AGreedy.Restarts),
		)
	}
	return tb.Render(w)
}

// Series returns the degradation curves against the fault intensity.
func (r ChaosResult) Series() []trace.Series {
	return tableSeries([]string{"abg-stretch", "agreedy-stretch", "abg-waste", "agreedy-waste", "abg-overshoot", "agreedy-overshoot"},
		len(r.Points), func(i int) (float64, []float64) {
			p := r.Points[i]
			return p.Intensity, []float64{p.ABG.Stretch, p.AGreedy.Stretch, p.ABG.Waste, p.AGreedy.Waste, p.ABG.Overshoot, p.AGreedy.Overshoot}
		})
}
