package experiments

import (
	"fmt"
	"io"

	"abg/internal/opensys"
	"abg/internal/parallel"
	"abg/internal/table"
	"abg/internal/trace"
)

// OpenSystemResult is the extension experiment running the two schedulers
// in an open system (Poisson arrivals, jobs leave on completion) across
// offered loads. The closed Figure 6 batches cannot show queueing effects;
// here the mean response blows up as the offered load approaches 1, and
// the question is who degrades first.
type OpenSystemResult struct {
	Loads []float64
	// ABGResponse / AGResponse are mean steady-state response times.
	ABGResponse, AGResponse []float64
	// ABGSlowdown / AGSlowdown are mean response/T∞ slowdowns.
	ABGSlowdown, AGSlowdown []float64
	// Ratio is AGResponse/ABGResponse per load.
	Ratio []float64
}

// OpenSystem sweeps offered loads for both schedulers on identical arrival
// traces.
func OpenSystem(cfg Config, loads []float64, jobs, shrink int) (OpenSystemResult, error) {
	if len(loads) == 0 || jobs < 8 {
		return OpenSystemResult{}, fmt.Errorf("experiments: invalid open-system config")
	}
	base := opensys.Config{
		Seed: cfg.Seed, P: cfg.P, L: cfg.L,
		Jobs: jobs, Warmup: jobs / 4,
		CLMin: 2, CLMax: 50,
		Shrink: shrink,
	}
	type point struct{ abg, ag opensys.Result }
	points, err := parallel.Map(len(loads), func(i int) (point, error) {
		var pt point
		abgCfg := base
		abgCfg.OfferedLoad = loads[i]
		abgCfg.Policy = cfg.abgPolicy
		abgCfg.Scheduler = cfg.abgScheduler()
		var err error
		if pt.abg, err = opensys.Run(abgCfg); err != nil {
			return pt, err
		}
		agCfg := base
		agCfg.OfferedLoad = loads[i]
		agCfg.Policy = cfg.agreedyPolicy
		agCfg.Scheduler = cfg.agreedyScheduler()
		if pt.ag, err = opensys.Run(agCfg); err != nil {
			return pt, err
		}
		return pt, nil
	})
	if err != nil {
		return OpenSystemResult{}, err
	}
	res := OpenSystemResult{Loads: loads}
	for _, pt := range points {
		res.ABGResponse = append(res.ABGResponse, pt.abg.Response.Mean)
		res.AGResponse = append(res.AGResponse, pt.ag.Response.Mean)
		res.ABGSlowdown = append(res.ABGSlowdown, pt.abg.Slowdown.Mean)
		res.AGSlowdown = append(res.AGSlowdown, pt.ag.Slowdown.Mean)
		res.Ratio = append(res.Ratio, pt.ag.Response.Mean/pt.abg.Response.Mean)
	}
	return res, nil
}

// Render writes the sweep as a table.
func (r OpenSystemResult) Render(w io.Writer) error {
	tb := table.New("offered load", "resp ABG", "resp A-Greedy", "ratio",
		"slowdown ABG", "slowdown A-Greedy")
	for i, rho := range r.Loads {
		tb.AddRowf(rho, r.ABGResponse[i], r.AGResponse[i], r.Ratio[i],
			r.ABGSlowdown[i], r.AGSlowdown[i])
	}
	return tb.Render(w)
}

// Series returns both schedulers' mean response against the offered load.
func (r OpenSystemResult) Series() []trace.Series {
	return tableSeries([]string{"abg-response", "agreedy-response"}, len(r.Loads), func(i int) (float64, []float64) {
		return r.Loads[i], []float64{r.ABGResponse[i], r.AGResponse[i]}
	})
}
