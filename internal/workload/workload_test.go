package workload

import (
	"math"
	"reflect"
	"testing"

	"abg/internal/alloc"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/metrics"
	"abg/internal/sched"
	"abg/internal/sim"
	"abg/internal/xrand"
)

func TestBuildForkJoinStructure(t *testing.T) {
	p := BuildForkJoin([]Phase{
		{Serial: 2, Width: 3, Height: 4},
		{Serial: 1},
	})
	// Levels: 2 serial + 4 parallel + 1 serial = 7; work = 2 + 12 + 1.
	if p.CriticalPathLen() != 7 {
		t.Fatalf("cpl = %d", p.CriticalPathLen())
	}
	if p.Work() != 15 {
		t.Fatalf("work = %d", p.Work())
	}
	// Parallel phase: first level Sync, interior Chain.
	if p.Level(2).Kind != job.Sync || p.Level(2).Width != 3 {
		t.Fatalf("fork level = %+v", p.Level(2))
	}
	if p.Level(3).Kind != job.Chain {
		t.Fatalf("interior level = %+v", p.Level(3))
	}
	// Join back to serial.
	if p.Level(6).Width != 1 || p.Level(6).Kind != job.Sync {
		t.Fatalf("join level = %+v", p.Level(6))
	}
}

func TestBuildForkJoinPanics(t *testing.T) {
	for name, phases := range map[string][]Phase{
		"empty":    {},
		"all zero": {{Serial: 0, Width: 0, Height: 0}},
		"negative": {{Serial: -1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			BuildForkJoin(phases)
		}()
	}
}

func TestBuildForkJoinZeroParts(t *testing.T) {
	// Width or Height zero omits the parallel part.
	p := BuildForkJoin([]Phase{{Serial: 3, Width: 0, Height: 5}})
	if p.Work() != 3 || p.CriticalPathLen() != 3 {
		t.Fatalf("serial-only: %d/%d", p.Work(), p.CriticalPathLen())
	}
	p = BuildForkJoin([]Phase{{Width: 4, Height: 2}})
	if p.Work() != 8 || p.CriticalPathLen() != 2 {
		t.Fatalf("parallel-only: %d/%d", p.Work(), p.CriticalPathLen())
	}
}

func TestJobParamsValidate(t *testing.T) {
	good := DefaultJobParams(10, 100)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []JobParams{
		{Width: 0, PhasesMin: 1, PhasesMax: 1, HeightMin: 1, HeightMax: 1},
		{Width: 1, PhasesMin: 0, PhasesMax: 1, HeightMin: 1, HeightMax: 1},
		{Width: 1, PhasesMin: 2, PhasesMax: 1, HeightMin: 1, HeightMax: 1},
		{Width: 1, PhasesMin: 1, PhasesMax: 1, SerialMin: 3, SerialMax: 1, HeightMin: 1, HeightMax: 1},
		{Width: 1, PhasesMin: 1, PhasesMax: 1, HeightMin: 0, HeightMax: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestGenJobDeterministic(t *testing.T) {
	a := GenJob(xrand.New(5), DefaultJobParams(20, 50))
	b := GenJob(xrand.New(5), DefaultJobParams(20, 50))
	if a.Work() != b.Work() || a.CriticalPathLen() != b.CriticalPathLen() {
		t.Fatal("generation is not deterministic")
	}
}

func TestGenJobRespectsParams(t *testing.T) {
	rng := xrand.New(9)
	p := JobParams{Width: 7, PhasesMin: 3, PhasesMax: 5, SerialMin: 2, SerialMax: 4, HeightMin: 2, HeightMax: 3}
	for trial := 0; trial < 20; trial++ {
		phases := GenPhases(rng, p)
		// Last phase is the trailing serial join.
		n := len(phases) - 1
		if n < p.PhasesMin || n > p.PhasesMax {
			t.Fatalf("phase count %d outside [%d,%d]", n, p.PhasesMin, p.PhasesMax)
		}
		for i, ph := range phases[:n] {
			if ph.Width != 7 {
				t.Fatalf("phase %d width %d", i, ph.Width)
			}
			if ph.Serial < 2 || ph.Serial > 4 || ph.Height < 2 || ph.Height > 3 {
				t.Fatalf("phase %d out of range: %+v", i, ph)
			}
		}
		if phases[n].Width != 0 || phases[n].Serial < 1 {
			t.Fatalf("trailing phase: %+v", phases[n])
		}
	}
}

func TestGenPhasesPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GenPhases(xrand.New(1), JobParams{})
}

func TestScaledJobParams(t *testing.T) {
	p := ScaledJobParams(10, 100, 4)
	d := DefaultJobParams(10, 100)
	if p.SerialMax != d.SerialMax/4 || p.HeightMax != d.HeightMax/4 {
		t.Fatalf("scaling wrong: %+v", p)
	}
	// Extreme shrink clamps to 1.
	p = ScaledJobParams(10, 4, 1000)
	if p.SerialMin < 1 || p.HeightMin < 1 || p.SerialMax < p.SerialMin || p.HeightMax < p.HeightMin {
		t.Fatalf("clamping wrong: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMeasuredTransitionFactorTracksWidth is the generator's core promise:
// simulating a generated job and measuring C_L from the quantum trace gives
// roughly the configured parallel width.
func TestMeasuredTransitionFactorTracksWidth(t *testing.T) {
	rng := xrand.New(11)
	const L = 100
	for _, w := range []int{2, 5, 10, 25} {
		p := GenJob(rng, DefaultJobParams(w, L))
		res, err := sim.RunSingle(job.NewRun(p), feedback.NewAControl(0.2), sched.BGreedy(),
			alloc.NewUnconstrained(256), sim.SingleConfig{L: L, KeepTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		cl := metrics.TransitionFactorFromQuanta(res.Quanta)
		if cl < float64(w)/2 || cl > float64(w)*2.5 {
			t.Fatalf("width %d: measured C_L %v far from target", w, cl)
		}
	}
}

func TestGenJobSetLoad(t *testing.T) {
	rng := xrand.New(13)
	const P = 64
	for _, target := range []float64{0.5, 1, 3} {
		jobs := GenJobSet(rng, SetParams{
			TargetLoad: target, P: P, QuantumLen: 100,
			CLMin: 2, CLMax: 40, Shrink: 4, MaxJobs: P,
		})
		if len(jobs) == 0 {
			t.Fatal("empty set")
		}
		load := Load(jobs, P)
		// Load must reach the target unless the job cap intervened; with a
		// generous cap the overshoot is at most one job's parallelism.
		if len(jobs) < P && load < target {
			t.Fatalf("target %v: load %v with %d jobs", target, load, len(jobs))
		}
	}
}

func TestGenJobSetCaps(t *testing.T) {
	rng := xrand.New(17)
	jobs := GenJobSet(rng, SetParams{
		TargetLoad: 1000, P: 8, QuantumLen: 50,
		CLMin: 2, CLMax: 10, Shrink: 8, MaxJobs: 8,
	})
	if len(jobs) != 8 {
		t.Fatalf("cap not applied: %d jobs", len(jobs))
	}
}

func TestGenJobSetPanics(t *testing.T) {
	for name, sp := range map[string]SetParams{
		"zero load": {TargetLoad: 0, P: 8, QuantumLen: 10, CLMin: 2, CLMax: 4},
		"bad P":     {TargetLoad: 1, P: 0, QuantumLen: 10, CLMin: 2, CLMax: 4},
		"bad CL":    {TargetLoad: 1, P: 8, QuantumLen: 10, CLMin: 5, CLMax: 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			GenJobSet(xrand.New(1), sp)
		}()
	}
}

func TestDefaultSetParams(t *testing.T) {
	sp := DefaultSetParams(2.5, 128, 1000)
	if sp.TargetLoad != 2.5 || sp.P != 128 || sp.CLMax != 100 || sp.MaxJobs != 128 {
		t.Fatalf("defaults: %+v", sp)
	}
}

func TestStepWidths(t *testing.T) {
	p := StepWidths([]int{2, 8, 2}, 5)
	if p.CriticalPathLen() != 15 {
		t.Fatalf("cpl = %d", p.CriticalPathLen())
	}
	if p.Work() != 5*(2+8+2) {
		t.Fatalf("work = %d", p.Work())
	}
	if p.Level(5).Kind != job.Sync || p.Level(6).Kind != job.Chain {
		t.Fatal("step boundaries wrong")
	}
	for _, f := range []func(){
		func() { StepWidths(nil, 3) },
		func() { StepWidths([]int{2}, 0) },
		func() { StepWidths([]int{0}, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestConstantJob(t *testing.T) {
	p := ConstantJob(6, 3, 100)
	if p.CriticalPathLen() != 300 || math.Abs(p.AvgParallelism()-6) > 1e-12 {
		t.Fatalf("constant job: cpl=%d A=%v", p.CriticalPathLen(), p.AvgParallelism())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ConstantJob(2, 0, 100)
}

func BenchmarkGenJob(b *testing.B) {
	rng := xrand.New(1)
	params := DefaultJobParams(50, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GenJob(rng, params)
	}
}

// TestGeneratorsMatchLevelByLevel pins that the segment-appending generators
// describe exactly the levels a level-by-level build lists: each profile
// is DeepEqual to job.MustProfile over the expanded levels, and holds at
// most three segments per phase however long the phases are.
func TestGeneratorsMatchLevelByLevel(t *testing.T) {
	rng := xrand.New(18)
	for i := 0; i < 200; i++ {
		phases := GenPhases(rng, ScaledJobParams(rng.IntRange(1, 40), 200, rng.IntRange(1, 4)))
		if i%5 == 0 {
			phases = append(phases, Phase{Width: 1, Height: 3}, Phase{Serial: 2, Width: 4, Height: 1})
		}
		var levels []job.Level
		for _, ph := range phases {
			for j := 0; j < ph.Serial; j++ {
				levels = append(levels, job.Level{Width: 1, Kind: job.Sync})
			}
			for j := 0; ph.Width > 0 && j < ph.Height; j++ {
				kind := job.Chain
				if j == 0 {
					kind = job.Sync
				}
				levels = append(levels, job.Level{Width: ph.Width, Kind: kind})
			}
		}
		p := BuildForkJoin(phases)
		if want := job.MustProfile(levels); !reflect.DeepEqual(p, want) {
			t.Fatalf("phases %+v: built %+v, want %+v", phases, p.Segments(), want.Segments())
		}
		if n := len(p.Segments()); n > 3*len(phases) {
			t.Fatalf("%d segments for %d phases", n, len(phases))
		}
	}
	var levels []job.Level
	widths := []int{3, 3, 1, 5}
	for _, w := range widths {
		levels = append(levels, job.Level{Width: w, Kind: job.Sync}, job.Level{Width: w, Kind: job.Chain})
	}
	if got, want := StepWidths(widths, 2), job.MustProfile(levels); !reflect.DeepEqual(got, want) {
		t.Fatalf("StepWidths: %+v, want %+v", got.Segments(), want.Segments())
	}
}
