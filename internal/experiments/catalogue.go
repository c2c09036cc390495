package experiments

import (
	"fmt"
	"io"
	"slices"

	"abg/internal/trace"
)

// Scale selects an experiment's size.
type Scale string

// The scales every catalogue entry runs at.
const (
	Small  Scale = "small"  // the whole catalogue in about a second; shapes only
	Medium Scale = "medium" // stable numbers at reduced size
	Full   Scale = "full"   // the paper's exact setup; seconds per experiment
)

// Scales lists the scales from smallest to largest.
var Scales = []Scale{Small, Medium, Full}

// ParseScale returns the named scale and rejects any other name.
func ParseScale(name string) (Scale, error) {
	if s := Scale(name); slices.Contains(Scales, s) {
		return s, nil
	}
	return "", fmt.Errorf("unknown scale %q (want small|medium|full)", name)
}

// Result is a catalogue entry's outcome. It renders as text tables; a
// result with a main series to plot or export also has a
// Series() []trace.Series method.
type Result interface {
	Render(w io.Writer) error
}

// SeriesOf returns res's main series, or nil when it has none.
func SeriesOf(res Result) []trace.Series {
	if s, ok := res.(interface{ Series() []trace.Series }); ok {
		return s.Series()
	}
	return nil
}

// Experiment is one entry of the evaluation catalogue.
type Experiment struct {
	Name, Title string
	// Claim is the paper's claim the entry reproduces; empty for the
	// ablations and extensions.
	Claim string
	// Run runs the entry at one of Scales.
	Run func(cfg Config, scale Scale) (Result, error)
}

// Lookup returns the catalogue entry with the given name.
func Lookup(name string) (Experiment, bool) {
	i := slices.IndexFunc(Catalogue, func(e Experiment) bool { return e.Name == name })
	if i < 0 {
		return Experiment{}, false
	}
	return Catalogue[i], true
}

// Names lists the catalogue's entry names in order.
func Names() []string {
	names := make([]string, len(Catalogue))
	for i, e := range Catalogue {
		names[i] = e.Name
	}
	return names
}

// result adapts a runner's typed return to Run's.
func result[R Result](r R, err error) (Result, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Catalogue is the evaluation in order: the paper's §7 figures and
// footnote 3, then the ablations and extensions. abgexp runs one entry and
// abgreport renders them all; testdata/<name>.<scale>.golden pins each
// entry's output at every scale.
var Catalogue = []Experiment{
	{
		Name: "fig1", Title: "Figure 1 — request instability of A-Greedy",
		Claim: "A-Greedy's request oscillates even at constant parallelism.",
		Run:   func(cfg Config, _ Scale) (Result, error) { return result(Fig1(cfg)) },
	},
	{
		Name: "fig4", Title: "Figure 4 — transient and steady-state behaviour",
		Claim: "ABG: no overshoot, zero steady-state error, convergence rate r.",
		Run:   func(cfg Config, _ Scale) (Result, error) { return result(Fig4(cfg)) },
	},
	{
		Name: "fig5", Title: "Figure 5 — running time and waste vs transition factor",
		Claim: "~20% running-time improvement and ~50% waste reduction on average.",
		Run: func(cfg Config, s Scale) (Result, error) {
			f5 := DefaultFig5Config()
			f5.Config = cfg
			switch s {
			case Small:
				f5.CLValues, f5.JobsPerCL, f5.Shrink = []int{2, 5, 10, 20, 50, 100}, 5, 4
			case Medium:
				f5.CLValues = nil
				for cl := 2; cl <= 100; cl += 7 {
					f5.CLValues = append(f5.CLValues, cl)
				}
				f5.JobsPerCL, f5.Shrink = 15, 2
			}
			return result(Fig5(f5))
		},
	},
	{
		Name: "fig6", Title: "Figure 6 — makespan and mean response time vs load",
		Claim: "10–15% better at light load; comparable under heavy load.",
		Run: func(cfg Config, s Scale) (Result, error) {
			f6 := DefaultFig6Config()
			f6.Config = cfg
			switch s {
			case Small:
				f6.NumSets, f6.Shrink, f6.Bins = 40, 4, 8
			case Medium:
				f6.NumSets, f6.Shrink, f6.Bins = 400, 1, 12
			}
			return result(Fig6(f6))
		},
	},
	{
		Name: "rsweep", Title: "Footnote 3 — convergence-rate sensitivity",
		Claim: "results stable for r < 0.6.",
		Run: func(cfg Config, s Scale) (Result, error) {
			rs := DefaultRSweepConfig()
			rs.Config = cfg
			if s == Small {
				rs.JobsPerPoint, rs.Shrink = 3, 4
			}
			return result(RSweep(rs))
		},
	},
	{
		Name: "gain", Title: "Ablation — adaptive vs fixed-gain control",
		Run: func(cfg Config, _ Scale) (Result, error) {
			return result(GainAblation(cfg, 2, 64, cfg.L*2, 4))
		},
	},
	{
		Name: "order", Title: "Ablation — execution order",
		Run: func(cfg Config, _ Scale) (Result, error) {
			return result(OrderAblation(cfg, []int{5, 20, 50}, 8, 2))
		},
	},
	{
		Name: "quantum", Title: "Ablation — quantum length",
		Run: func(cfg Config, _ Scale) (Result, error) {
			return result(QuantumLengthAblation(cfg,
				[]int{125, 250, 500, 1000, 2000, 4000}, []int{10, 40}, 6, 2))
		},
	},
	{
		Name: "adaptivel", Title: "Extension — dynamic quantum length (§9)",
		Run: func(cfg Config, _ Scale) (Result, error) {
			return result(AdaptiveQuantum(cfg, []int{5, 20, 50}, 6, 2, cfg.L/8, cfg.L*2))
		},
	},
	{
		Name: "steal", Title: "Extension — work-stealing executors (§8)",
		Run: func(cfg Config, s Scale) (Result, error) {
			shrink := 4
			if s == Full {
				shrink = 2
			}
			return result(Steal(cfg, []int{4, 16, 64}, 5, shrink))
		},
	},
	{
		Name: "mixed", Title: "Extension — mixed scheduler populations",
		Run: func(cfg Config, s Scale) (Result, error) {
			sets := 30
			if s == Full {
				sets = 200
			}
			return result(Mixed(cfg, sets, 1.0, 2))
		},
	},
	{
		Name: "chaos", Title: "Robustness — ABG vs A-Greedy under injected faults",
		Run: func(cfg Config, s Scale) (Result, error) {
			cc := DefaultChaosConfig()
			cc.Config = cfg
			cc.Plan = DefaultChaosPlan(cfg.P, cfg.Seed)
			switch s {
			case Small:
				cc.Jobs, cc.Shrink, cc.ProbeQuanta = 3, 4, 30
			case Full:
				cc.Jobs, cc.Intensities = 24, []float64{0, 0.125, 0.25, 0.5, 0.75, 1}
			}
			return result(Chaos(cc))
		},
	},
	{
		Name: "ratestudy", Title: "Extension — historical convergence-rate selection (§6.2 remark)",
		Run: func(cfg Config, _ Scale) (Result, error) {
			return result(RateStudy(cfg, []int{10, 30, 60, 100}, 8, 2))
		},
	},
	{
		Name: "opensystem", Title: "Extension — open system under Poisson arrivals",
		Run: func(cfg Config, s Scale) (Result, error) {
			jobs := 150
			if s == Full {
				jobs = 600
			}
			return result(OpenSystem(cfg, []float64{0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95}, jobs, 4))
		},
	},
}

// curve builds the named series of n points.
func curve(name string, n int, at func(i int) (x, y float64)) trace.Series {
	s := trace.Series{Name: name, X: make([]float64, n), Y: make([]float64, n)}
	for i := range n {
		s.X[i], s.Y[i] = at(i)
	}
	return s
}

// tableSeries turns n rows, each an x and one y per name, into one series
// per name.
func tableSeries(names []string, n int, row func(i int) (float64, []float64)) []trace.Series {
	series := make([]trace.Series, len(names))
	for j, name := range names {
		series[j] = curve(name, n, func(i int) (float64, float64) {
			x, ys := row(i)
			return x, ys[j]
		})
	}
	return series
}
