package sim

import (
	"fmt"

	"abg/internal/alloc"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/obs"
	"abg/internal/sched"
)

// AdaptiveLConfig configures the dynamic quantum-length engine — an
// implementation of the paper's §9 future-work suggestion ("dynamically
// adjusting the quantum length ... to achieve better system wide
// adaptivity").
//
// The heuristic: when the processor request has settled (it changed by less
// than StableTol relative to the previous quantum), the quantum length is
// multiplied by Grow, up to LMax — fewer feedback actions and reallocations
// for a job in steady state. When the request moves more than that, the
// length resets to LMin so the controller can track the change closely.
type AdaptiveLConfig struct {
	// LMin and LMax bound the quantum length; LMin is also the initial
	// length. Required: 1 ≤ LMin ≤ LMax.
	LMin, LMax int
	// Grow is the lengthening factor applied after a stable quantum
	// (default 2 when zero; must be > 1 otherwise).
	Grow float64
	// StableTol is the relative request-change threshold below which a
	// quantum counts as stable (default 0.05 when zero).
	StableTol float64
	// MaxQuanta caps the simulation; DefaultMaxQuanta when zero.
	MaxQuanta int
	// KeepTrace records per-quantum stats in the result — the same opt-in
	// polarity as SingleConfig and MultiConfig. (Earlier versions always
	// recorded the trace.)
	KeepTrace bool
	// Obs receives the live instrumentation events of the run (see
	// abg/internal/obs); nil disables emission.
	Obs *obs.Bus
}

func (c *AdaptiveLConfig) normalize() error {
	if c.LMin < 1 || c.LMax < c.LMin {
		return fmt.Errorf("sim: invalid adaptive quantum bounds [%d,%d]", c.LMin, c.LMax)
	}
	if c.Grow == 0 {
		c.Grow = 2
	}
	if c.Grow <= 1 {
		return fmt.Errorf("sim: adaptive quantum growth factor %v must exceed 1", c.Grow)
	}
	if c.StableTol == 0 {
		c.StableTol = 0.05
	}
	if c.StableTol < 0 {
		return fmt.Errorf("sim: negative stability tolerance %v", c.StableTol)
	}
	if c.MaxQuanta <= 0 {
		c.MaxQuanta = DefaultMaxQuanta
	}
	return nil
}

// RunSingleAdaptiveL simulates a job alone like RunSingle but with a
// dynamically adjusted quantum length. The per-quantum trace (recorded with
// KeepTrace) includes the length actually used in each quantum
// (QuantumStats.Length).
func RunSingleAdaptiveL(inst job.Instance, pol feedback.Policy, sc sched.Scheduler,
	allocator alloc.Single, cfg AdaptiveLConfig) (SingleResult, error) {

	if err := cfg.normalize(); err != nil {
		return SingleResult{}, err
	}
	return runSingle(inst, pol, sc, allocator, SingleConfig{L: cfg.LMin,
		MaxQuanta: cfg.MaxQuanta, KeepTrace: cfg.KeepTrace, Obs: cfg.Obs}, &cfg)
}

// nextLength is the adaptive rule: after a quantum whose request moved from
// prevD to d by at most StableTol relative to max(prevD, 1), the length l
// grows by Grow up to LMax; after a larger move it resets to LMin.
func (c *AdaptiveLConfig) nextLength(l int, prevD, d float64) int {
	scale := prevD
	if scale < 1 {
		scale = 1
	}
	rel := d - prevD
	if rel < 0 {
		rel = -rel
	}
	if rel/scale <= c.StableTol {
		return min(int(float64(l)*c.Grow), c.LMax)
	}
	return c.LMin
}
