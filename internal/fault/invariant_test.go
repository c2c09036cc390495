package fault

import (
	"math"
	"strings"
	"testing"

	"abg/internal/alloc"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/obs"
	"abg/internal/sched"
	"abg/internal/sim"
	"abg/internal/workload"
)

// expectViolation feeds the events to a fresh checker and asserts exactly
// the substrings appear among its violations.
func expectViolation(t *testing.T, p int, events []obs.Event, wantSubstr string) {
	t.Helper()
	c := NewChecker(p, false)
	for _, e := range events {
		c.OnEvent(e)
	}
	if c.Count() == 0 {
		t.Fatalf("no violation recorded, want one containing %q", wantSubstr)
	}
	joined := strings.Join(c.Violations(), "\n")
	if !strings.Contains(joined, wantSubstr) {
		t.Fatalf("violations %q do not mention %q", joined, wantSubstr)
	}
	if c.Err() == nil {
		t.Fatal("Err() nil despite violations")
	}
}

func TestCheckerCatchesSyntheticViolations(t *testing.T) {
	cases := []struct {
		name   string
		events []obs.Event
		want   string
	}{
		{"negative request",
			[]obs.Event{{Kind: obs.EvRequest, Job: 0, Quantum: 1, Request: -2, IntRequest: 1}},
			"negative request"},
		{"NaN request",
			[]obs.Event{{Kind: obs.EvRequest, Job: 0, Quantum: 1, Request: math.NaN(), IntRequest: 1}},
			"non-finite"},
		{"negative integer request",
			[]obs.Event{{Kind: obs.EvRequest, Job: 0, Quantum: 1, Request: 1, IntRequest: -1}},
			"negative integer request"},
		{"allotment above machine",
			[]obs.Event{{Kind: obs.EvAllotment, Job: 0, Quantum: 1, IntRequest: 99, Allotment: 17, Deprived: true}},
			"exceeds capacity"},
		{"allotment above churned capacity",
			[]obs.Event{
				{Kind: obs.EvCapacity, Quantum: 3, P: 8},
				{Kind: obs.EvAllotment, Job: 0, Quantum: 3, IntRequest: 12, Allotment: 12},
			},
			"exceeds capacity P(t)=8"},
		{"negative allotment",
			[]obs.Event{{Kind: obs.EvAllotment, Job: 0, Quantum: 1, IntRequest: 2, Allotment: -1, Deprived: true}},
			"negative allotment"},
		{"deprived flag mismatch",
			[]obs.Event{{Kind: obs.EvAllotment, Job: 0, Quantum: 1, IntRequest: 3, Allotment: 5, Deprived: true}},
			"deprived flag"},
		{"capacity outside machine",
			[]obs.Event{{Kind: obs.EvCapacity, Quantum: 1, P: 17}},
			"outside [0,16]"},
		{"negative quantum work",
			[]obs.Event{{Kind: obs.EvQuantumEnd, Job: 0, Quantum: 1, Steps: 10, Work: -5}},
			"negative measurement"},
		{"non-finite parallelism",
			[]obs.Event{{Kind: obs.EvQuantumEnd, Job: 0, Quantum: 1, Steps: 10, Work: 5, Parallelism: math.Inf(1)}},
			"non-finite parallelism"},
		{"satisfied before deprived",
			[]obs.Event{{Kind: obs.EvSatisfied, Job: 0, Quantum: 2}},
			"not deprived"},
		{"double deprivation",
			[]obs.Event{
				{Kind: obs.EvDeprived, Job: 0, Quantum: 1},
				{Kind: obs.EvDeprived, Job: 0, Quantum: 2},
			},
			"already deprived"},
		{"restart lost-work mismatch",
			[]obs.Event{
				{Kind: obs.EvJobAdmitted, Job: 0, Work: 100},
				{Kind: obs.EvQuantumEnd, Job: 0, Quantum: 1, Steps: 10, Work: 60, Parallelism: 6},
				{Kind: obs.EvJobRestarted, Job: 0, Quantum: 1, Work: 50},
			},
			"restart lost 50 but attempt executed 60"},
		{"work not conserved at completion",
			[]obs.Event{
				{Kind: obs.EvJobAdmitted, Job: 0, Work: 100},
				{Kind: obs.EvQuantumEnd, Job: 0, Quantum: 1, Steps: 10, Work: 60, Parallelism: 6},
				{Kind: obs.EvJobCompleted, Job: 0, Work: 100},
			},
			"work not conserved"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expectViolation(t, 16, tc.events, tc.want)
		})
	}
}

func TestCheckerFailFastPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("failFast checker did not panic")
		} else if !strings.Contains(r.(string), "invariant violated") {
			t.Fatalf("panic message: %v", r)
		}
	}()
	c := NewChecker(16, true)
	c.OnEvent(obs.Event{Kind: obs.EvRequest, Request: -1})
}

// maliciousPolicy emits a negative request once warmed up — the seeded
// violation the checker must catch through a real engine run.
type maliciousPolicy struct{ q int }

func (m *maliciousPolicy) InitialRequest() float64 { return 1 }
func (m *maliciousPolicy) NextRequest(*sched.QuantumStats) float64 {
	m.q++
	if m.q == 3 {
		return -4
	}
	return 2
}
func (m *maliciousPolicy) Name() string { return "malicious" }
func (m *maliciousPolicy) Reset()       { m.q = 0 }

// maliciousAlloc grants more than the machine has.
type maliciousAlloc struct{ p int }

func (m maliciousAlloc) Grant(q, req int) int { return m.p + 7 }
func (m maliciousAlloc) Name() string         { return "malicious" }

func TestCheckerCatchesSeededViolationsEndToEnd(t *testing.T) {
	profile := workload.ConstantJob(4, 12, 50)

	t.Run("negative request", func(t *testing.T) {
		bus := obs.NewBus()
		c := NewChecker(16, false)
		defer bus.Subscribe(c)()
		_, err := sim.RunSingle(job.NewRun(profile), &maliciousPolicy{}, sched.BGreedy(),
			alloc.NewUnconstrained(16), sim.SingleConfig{L: 50, Obs: bus})
		if err != nil {
			t.Fatal(err)
		}
		if c.Count() == 0 {
			t.Fatal("checker missed the negative request")
		}
		if !strings.Contains(c.Err().Error(), "negative request") {
			t.Fatalf("wrong violation: %v", c.Err())
		}
	})

	t.Run("allotment above capacity", func(t *testing.T) {
		bus := obs.NewBus()
		c := NewChecker(16, false)
		defer bus.Subscribe(c)()
		_, err := sim.RunSingle(job.NewRun(profile), feedback.NewAControl(0.2), sched.BGreedy(),
			maliciousAlloc{p: 16}, sim.SingleConfig{L: 50, Obs: bus})
		if err != nil {
			t.Fatal(err)
		}
		if c.Count() == 0 || !strings.Contains(c.Err().Error(), "exceeds capacity") {
			t.Fatalf("checker missed the oversubscription: %v", c.Err())
		}
	})
}

// TestCheckerCleanRuns audits honest runs — faulted and fault-free, single
// and multi — and expects silence.
func TestCheckerCleanRuns(t *testing.T) {
	plan := Plan{
		Seed:     21,
		Capacity: ChurnCapacity{P: 32, MaxLoss: 16, Window: 4, Seed: 21},
		Drop:     0.3, Delay: 2, DelayProb: 0.2, Dup: 0.1, NoiseMul: 0.4,
		RestartAt: []int{6}, MaxRestarts: 1,
	}
	profile := workload.ConstantJob(6, 20, 50)

	t.Run("single", func(t *testing.T) {
		bus := obs.NewBus()
		c := NewChecker(32, false)
		defer bus.Subscribe(c)()
		cfg := sim.SingleConfig{L: 50, Obs: bus, Capacity: plan.Capacity}
		cfg.Restart = &sim.RestartPlan{
			At:  plan.RestartHook(0),
			New: func() job.Instance { return job.NewRun(profile) },
			Max: plan.MaxRestarts,
		}
		res, err := sim.RunSingle(job.NewRun(profile),
			plan.Policy(feedback.NewAControl(0.2), 0, bus), sched.BGreedy(),
			alloc.NewUnconstrained(32), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Restarts != 1 {
			t.Fatalf("restart did not fire: %+v", res.Restarts)
		}
		if err := c.Err(); err != nil {
			t.Fatalf("clean faulted run flagged: %v", err)
		}
	})

	t.Run("multi", func(t *testing.T) {
		bus := obs.NewBus()
		c := NewChecker(32, false)
		defer bus.Subscribe(c)()
		specs := make([]sim.JobSpec, 3)
		for i := range specs {
			p := workload.ConstantJob(4+2*i, 12, 50)
			specs[i] = sim.JobSpec{
				Inst:   job.NewRun(p),
				Policy: plan.Policy(feedback.NewAControl(0.2), i, bus),
				Sched:  sched.BGreedy(),
				Restart: &sim.RestartPlan{
					At:  plan.RestartHook(i),
					New: func() job.Instance { return job.NewRun(p) },
					Max: plan.MaxRestarts,
				},
			}
		}
		_, err := sim.RunMulti(specs, sim.MultiConfig{
			P: 32, L: 50, Allocator: alloc.DynamicEquiPartition{},
			Obs: bus, Capacity: plan.Capacity,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Err(); err != nil {
			t.Fatalf("clean multi run flagged: %v", err)
		}
	})
}

// TestCheckerResume pins the crash-recovery priming: a checker subscribed
// after an engine restore never saw the job's earlier transitions, so
// Resume must carry the deprivation state and attempt work forward — and
// without it the same events are (correctly) flagged.
func TestCheckerResume(t *testing.T) {
	resumeEvents := []obs.Event{
		{Kind: obs.EvQuantumEnd, Job: 0, Quantum: 9, Steps: 50, Work: 70, Parallelism: 1.4},
		{Kind: obs.EvSatisfied, Job: 0, Quantum: 9},
		{Kind: obs.EvJobRestarted, Job: 0, Quantum: 10, Work: 570},
	}

	fresh := NewChecker(8, false)
	for _, e := range resumeEvents {
		fresh.OnEvent(e)
	}
	if fresh.Count() != 2 {
		t.Fatalf("unprimed checker recorded %d violations, want 2 (transition + conservation): %v",
			fresh.Count(), fresh.Violations())
	}

	primed := NewChecker(8, false)
	primed.Resume(0, true, 500) // deprived at snapshot, 500 work this attempt
	for _, e := range resumeEvents {
		primed.OnEvent(e)
	}
	if err := primed.Err(); err != nil {
		t.Fatalf("primed checker flagged a clean resume: %v", err)
	}
	// Completion conservation stays disarmed for resumed jobs: the checker
	// cannot know pre-snapshot executed work.
	primed.OnEvent(obs.Event{Kind: obs.EvJobCompleted, Job: 0, Work: 999})
	if err := primed.Err(); err != nil {
		t.Fatalf("resumed job completion flagged: %v", err)
	}
}
