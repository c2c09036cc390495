// Package workload generates the synthetic data-parallel jobs of the
// paper's §7 simulations: fork-join jobs alternating serial and parallel
// phases. The level of parallelism of the parallel phases sets the job's
// transition factor; the phase lengths set its work and critical-path
// length. Job sets for the multiprogrammed experiments are assembled by
// accumulating jobs until a target system load (Σ A_i / P) is reached.
//
// All generation is driven by abg/internal/xrand so experiments are
// reproducible from a seed.
package workload

import (
	"fmt"

	"abg/internal/job"
	"abg/internal/xrand"
)

// Phase is one serial+parallel section of a fork-join job: Serial serial
// levels, then a parallel phase of Width chains of Height levels. Any part
// may be zero-length (but not all).
type Phase struct {
	Serial int
	Width  int
	Height int
}

// BuildForkJoin assembles a profile job from explicit phases. Serial levels
// are width-1 Sync levels; a parallel phase is one Sync fan-out level of the
// given width followed by Height−1 Chain levels (independent chains), and
// the next level after it acts as the join. It appends at most three
// segments per phase and materialises no level.
func BuildForkJoin(phases []Phase) *job.Profile {
	segs := make([]job.Segment, 0, 3*len(phases))
	for _, ph := range phases {
		if ph.Serial < 0 || ph.Width < 0 || ph.Height < 0 {
			panic(fmt.Sprintf("workload: negative phase field %+v", ph))
		}
		if ph.Serial > 0 {
			segs = append(segs, job.Segment{Level: job.Level{Width: 1, Kind: job.Sync}, Count: ph.Serial})
		}
		if ph.Width > 0 && ph.Height > 0 {
			segs = appendRun(segs, ph.Width, ph.Height)
		}
	}
	if len(segs) == 0 {
		panic("workload: fork-join job with no levels")
	}
	return mustSegments(segs)
}

// appendRun appends a Sync fan-out level of the given width and its
// height−1 Chain levels.
func appendRun(segs []job.Segment, width, height int) []job.Segment {
	segs = append(segs, job.Segment{Level: job.Level{Width: width, Kind: job.Sync}, Count: 1})
	if height > 1 {
		segs = append(segs, job.Segment{Level: job.Level{Width: width, Kind: job.Chain}, Count: height - 1})
	}
	return segs
}

// mustSegments builds a profile from segments the caller has validated.
func mustSegments(segs []job.Segment) *job.Profile {
	p, err := job.NewProfileSegments(segs)
	if err != nil {
		panic(err)
	}
	return p
}

// JobParams parameterises one random fork-join job.
type JobParams struct {
	// Width is the parallelism of the parallel phases; for long phases the
	// measured transition factor approaches this value (serial phases have
	// parallelism ~1).
	Width int
	// PhasesMin..PhasesMax bounds the number of serial+parallel phase pairs.
	PhasesMin, PhasesMax int
	// SerialMin..SerialMax bounds each serial phase length (levels).
	SerialMin, SerialMax int
	// HeightMin..HeightMax bounds each parallel phase height (levels).
	HeightMin, HeightMax int
}

// Validate checks the parameter ranges.
func (p JobParams) Validate() error {
	switch {
	case p.Width < 1:
		return fmt.Errorf("workload: width %d < 1", p.Width)
	case p.PhasesMin < 1 || p.PhasesMax < p.PhasesMin:
		return fmt.Errorf("workload: bad phase count range [%d,%d]", p.PhasesMin, p.PhasesMax)
	case p.SerialMin < 0 || p.SerialMax < p.SerialMin:
		return fmt.Errorf("workload: bad serial range [%d,%d]", p.SerialMin, p.SerialMax)
	case p.HeightMin < 1 || p.HeightMax < p.HeightMin:
		return fmt.Errorf("workload: bad height range [%d,%d]", p.HeightMin, p.HeightMax)
	}
	return nil
}

// DefaultJobParams returns the parameters used by the Figure 5 experiments:
// parallel width = the target transition factor, 6–12 phases, and phase
// lengths of 0.5–2 quanta so that quanta land both inside phases and across
// transitions.
func DefaultJobParams(transitionFactor, quantumLen int) JobParams {
	return JobParams{
		Width:     transitionFactor,
		PhasesMin: 6, PhasesMax: 12,
		SerialMin: quantumLen / 2, SerialMax: 2 * quantumLen,
		HeightMin: quantumLen / 2, HeightMax: 2 * quantumLen,
	}
}

// ScaledJobParams returns DefaultJobParams with all phase lengths scaled by
// 1/div — the smaller jobs used when assembling large multiprogrammed job
// sets (Figure 6) and fast unit tests.
func ScaledJobParams(transitionFactor, quantumLen, div int) JobParams {
	p := DefaultJobParams(transitionFactor, quantumLen)
	p.SerialMin /= div
	p.SerialMax /= div
	p.HeightMin /= div
	p.HeightMax /= div
	if p.SerialMin < 1 {
		p.SerialMin = 1
	}
	if p.SerialMax < p.SerialMin {
		p.SerialMax = p.SerialMin
	}
	if p.HeightMin < 1 {
		p.HeightMin = 1
	}
	if p.HeightMax < p.HeightMin {
		p.HeightMax = p.HeightMin
	}
	return p
}

// GenPhases draws a random phase list from the parameters.
func GenPhases(rng *xrand.RNG, p JobParams) []Phase {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	n := rng.IntRange(p.PhasesMin, p.PhasesMax)
	phases := make([]Phase, 0, n+1)
	for i := 0; i < n; i++ {
		phases = append(phases, Phase{
			Serial: rng.IntRange(p.SerialMin, p.SerialMax),
			Width:  p.Width,
			Height: rng.IntRange(p.HeightMin, p.HeightMax),
		})
	}
	// Trailing serial join so the job ends on its critical path.
	phases = append(phases, Phase{Serial: rng.IntRange(1, p.SerialMax)})
	return phases
}

// GenJob draws one random fork-join job.
func GenJob(rng *xrand.RNG, p JobParams) *job.Profile {
	return BuildForkJoin(GenPhases(rng, p))
}

// SetParams parameterises a multiprogrammed job set (Figure 6).
type SetParams struct {
	// TargetLoad is the desired Σ A_i / P of the set.
	TargetLoad float64
	// P is the machine size the load is normalised against.
	P int
	// QuantumLen is L, used to scale phase lengths.
	QuantumLen int
	// CLMin..CLMax bounds the per-job transition factors (parallel widths).
	CLMin, CLMax int
	// Shrink divides the phase lengths (jobs in sets are smaller than the
	// standalone Figure 5 jobs so that thousands of sets stay simulable).
	Shrink int
	// MaxJobs caps the set size; the paper requires |J| ≤ P.
	MaxJobs int
}

// DefaultSetParams returns the Figure 6 setup for the given target load.
func DefaultSetParams(targetLoad float64, p, quantumLen int) SetParams {
	return SetParams{
		TargetLoad: targetLoad,
		P:          p,
		QuantumLen: quantumLen,
		CLMin:      2, CLMax: 100,
		Shrink:  4,
		MaxJobs: p,
	}
}

// GenJobSet assembles a job set whose load approximates TargetLoad by
// accumulating random fork-join jobs until the load is reached (always at
// least one job, at most MaxJobs). It returns the profiles; the realised
// load can be computed from them via Load.
func GenJobSet(rng *xrand.RNG, sp SetParams) []*job.Profile {
	if sp.TargetLoad <= 0 || sp.P < 1 || sp.QuantumLen < 1 {
		panic(fmt.Sprintf("workload: invalid set params %+v", sp))
	}
	if sp.CLMin < 1 || sp.CLMax < sp.CLMin {
		panic(fmt.Sprintf("workload: invalid CL range [%d,%d]", sp.CLMin, sp.CLMax))
	}
	if sp.Shrink < 1 {
		sp.Shrink = 1
	}
	maxJobs := sp.MaxJobs
	if maxJobs < 1 {
		maxJobs = sp.P
	}
	var jobs []*job.Profile
	load := 0.0
	for load < sp.TargetLoad && len(jobs) < maxJobs {
		cl := rng.IntRange(sp.CLMin, sp.CLMax)
		p := GenJob(rng, ScaledJobParams(cl, sp.QuantumLen, sp.Shrink))
		jobs = append(jobs, p)
		load += p.AvgParallelism() / float64(sp.P)
	}
	return jobs
}

// Load returns the system load Σ A_i / P of a set of profiles.
func Load(jobs []*job.Profile, p int) float64 {
	sum := 0.0
	for _, j := range jobs {
		sum += j.AvgParallelism()
	}
	return sum / float64(p)
}

// StepWidths builds a profile whose parallelism steps through the given
// widths, each held for `hold` levels — the "step job" used to study
// transient response to parallelism changes (ablation experiments).
func StepWidths(widths []int, hold int) *job.Profile {
	if len(widths) == 0 || hold < 1 {
		panic("workload: StepWidths needs widths and hold >= 1")
	}
	segs := make([]job.Segment, 0, 2*len(widths))
	for _, w := range widths {
		if w < 1 {
			panic("workload: step width must be >= 1")
		}
		segs = appendRun(segs, w, hold)
	}
	return mustSegments(segs)
}

// ConstantJob returns a constant-parallelism job sized to run for about the
// given number of quanta when fully allotted: width chains of quanta·L
// levels (Figures 1 and 4).
func ConstantJob(width, quanta, quantumLen int) *job.Profile {
	if quanta < 1 || quantumLen < 1 {
		panic("workload: ConstantJob needs quanta, quantumLen >= 1")
	}
	return job.Constant(width, quanta*quantumLen)
}
