package fault

import (
	"testing"

	"abg/internal/obs"
	"abg/internal/sched"
)

// seqPolicy is a scripted inner policy: InitialRequest returns 100 and the
// q-th NextRequest returns float64(q), so tests can tell exactly which
// quantum's message the channel delivered.
type seqPolicy struct {
	q     int
	seen  []sched.QuantumStats
	reset int
}

func (s *seqPolicy) InitialRequest() float64 { s.q = 0; return 100 }
func (s *seqPolicy) NextRequest(st *sched.QuantumStats) float64 {
	s.q++
	s.seen = append(s.seen, *st)
	return float64(s.q)
}
func (s *seqPolicy) Name() string { return "seq" }
func (s *seqPolicy) Reset()       { s.q = 0; s.reset++ }

// cleanStats is a full quantum with parallelism 8.
func cleanStats() *sched.QuantumStats {
	return &sched.QuantumStats{Length: 100, Steps: 100, Allotment: 8, Work: 800, CPL: 100}
}

func TestPolicyPassthroughWhenChannelInactive(t *testing.T) {
	inner := &seqPolicy{}
	if got := (Plan{Capacity: StepCapacity{P: 4, Loss: 2, From: 1}, RestartProb: 0.5}).
		Policy(inner, 0, nil); got != inner {
		t.Fatal("plan without channel faults must return the inner policy unchanged")
	}
	// DelayProb without Delay is not a channel fault.
	if got := (Plan{DelayProb: 0.5}).Policy(inner, 0, nil); got != inner {
		t.Fatal("delay probability without delay must be inert")
	}
}

func TestChannelDropHoldsLastSeen(t *testing.T) {
	inner := &seqPolicy{}
	pol := Plan{Seed: 1, Drop: 1}.Policy(inner, 0, nil)
	if d := pol.InitialRequest(); d != 100 {
		t.Fatalf("initial request %v", d)
	}
	for q := 1; q <= 10; q++ {
		if d := pol.NextRequest(cleanStats()); d != 100 {
			t.Fatalf("q=%d: delivered %v, want the initial 100 (all messages dropped)", q, d)
		}
	}
	if inner.q != 10 {
		t.Fatalf("inner policy must still see every quantum: %d", inner.q)
	}
}

func TestChannelDelayShiftsDelivery(t *testing.T) {
	const k = 2
	inner := &seqPolicy{}
	pol := Plan{Seed: 1, Delay: k, DelayProb: 1}.Policy(inner, 0, nil)
	pol.InitialRequest()
	for q := 1; q <= 10; q++ {
		want := float64(q - k)
		if q <= k {
			want = 100 // nothing has arrived yet; last-seen is the initial
		}
		if d := pol.NextRequest(cleanStats()); d != want {
			t.Fatalf("q=%d: delivered %v, want %v (messages delayed %d quanta)", q, d, want, k)
		}
	}
}

func TestChannelDupFreshWinsTie(t *testing.T) {
	// With every message duplicated and none lost, the stale copy arriving
	// at q+1 ties with the fresh message and the later send wins: behaviour
	// is identical to a clean channel.
	inner := &seqPolicy{}
	pol := Plan{Seed: 1, Dup: 1}.Policy(inner, 0, nil)
	pol.InitialRequest()
	for q := 1; q <= 10; q++ {
		if d := pol.NextRequest(cleanStats()); d != float64(q) {
			t.Fatalf("q=%d: delivered %v, want %v", q, d, float64(q))
		}
	}
}

func TestChannelDupCoversDrop(t *testing.T) {
	// Drop+dup without normal delivery: every message is either lost or
	// duplicated. After a dup at quantum q, a drop at q+1 still delivers
	// q's stale copy — the duplicate masks the loss one quantum later.
	plan := Plan{Seed: 3, Drop: 0.5, Dup: 0.5}
	inner := &seqPolicy{}
	bus := obs.NewBus()
	rec := &obs.Recorder{}
	defer bus.Subscribe(rec)()
	pol := plan.Policy(inner, 0, bus)
	pol.InitialRequest()

	const quanta = 200
	delivered := make([]float64, quanta+1)
	for q := 1; q <= quanta; q++ {
		delivered[q] = pol.NextRequest(cleanStats())
	}
	kinds := map[int]string{}
	for _, e := range rec.Events() {
		if e.Kind == obs.EvFault {
			kinds[e.Quantum] = e.Name
		}
	}
	if len(kinds) != quanta {
		t.Fatalf("every quantum must be drop or dup: %d/%d", len(kinds), quanta)
	}
	// Reference semantics: dup delivers fresh now and masks next quantum;
	// drop delivers the previous quantum's value iff it was a dup.
	last := 100.0
	sawMask := false
	for q := 1; q <= quanta; q++ {
		switch kinds[q] {
		case "dup":
			last = float64(q)
		case "drop":
			if kinds[q-1] == "dup" {
				if q >= 2 {
					sawMask = true
				}
				last = float64(q - 1) // stale copy arrives one quantum late
			}
		default:
			t.Fatalf("q=%d: unexpected fault %q", q, kinds[q])
		}
		if delivered[q] != last {
			t.Fatalf("q=%d (%s): delivered %v, reference %v", q, kinds[q], delivered[q], last)
		}
	}
	if !sawMask {
		t.Fatal("200 quanta at 50/50 never produced dup followed by drop")
	}
}

func TestChannelNoisePerturbsMeasurement(t *testing.T) {
	inner := &seqPolicy{}
	bus := obs.NewBus()
	rec := &obs.Recorder{}
	defer bus.Subscribe(rec)()
	pol := Plan{Seed: 5, NoiseMul: 0.5}.Policy(inner, 0, bus)
	pol.InitialRequest()
	for q := 1; q <= 50; q++ {
		pol.NextRequest(cleanStats())
	}
	if len(inner.seen) != 50 {
		t.Fatalf("inner saw %d quanta", len(inner.seen))
	}
	perturbed := 0
	for i, st := range inner.seen {
		a := st.AvgParallelism()
		if a < 8*0.5-1e-9 || a > 8*1.5+1e-9 {
			t.Fatalf("quantum %d: noisy A=%v outside ±50%% of 8", i+1, a)
		}
		if st.CPL != 100 {
			perturbed++
		}
		if st.Work != 800 || st.Allotment != 8 {
			t.Fatalf("noise must only touch the critical-path term: %+v", st)
		}
	}
	if perturbed < 40 {
		t.Fatalf("only %d/50 measurements perturbed", perturbed)
	}
	noiseEvents := 0
	for _, e := range rec.Events() {
		if e.Kind == obs.EvFault && e.Name == "noise" {
			noiseEvents++
		}
	}
	if noiseEvents != perturbed {
		t.Fatalf("%d noise events for %d perturbations", noiseEvents, perturbed)
	}
}

func TestChannelDeterministicReplay(t *testing.T) {
	plan := Plan{Seed: 11, Drop: 0.3, Delay: 2, DelayProb: 0.2, Dup: 0.1, NoiseMul: 0.4}
	run := func() []float64 {
		pol := plan.Policy(&seqPolicy{}, 3, nil)
		out := []float64{pol.InitialRequest()}
		for q := 1; q <= 100; q++ {
			out = append(out, pol.NextRequest(cleanStats()))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v != %v", i, a[i], b[i])
		}
	}
	// A different job index must see a different fault schedule.
	polOther := plan.Policy(&seqPolicy{}, 4, nil)
	polOther.InitialRequest()
	same := true
	for q := 1; q <= 100; q++ {
		if polOther.NextRequest(cleanStats()) != a[q] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("jobs 3 and 4 share one fault schedule")
	}
}

func TestChannelResetClearsInFlight(t *testing.T) {
	inner := &seqPolicy{}
	pol := Plan{Seed: 1, Delay: 3, DelayProb: 1}.Policy(inner, 0, nil)
	pol.InitialRequest()
	pol.NextRequest(cleanStats()) // message 1 in flight, due q=4
	pol.Reset()
	if inner.reset != 1 {
		t.Fatalf("inner not reset: %d", inner.reset)
	}
	pol.InitialRequest()
	for q := 1; q <= 3; q++ {
		if d := pol.NextRequest(cleanStats()); d != 100 {
			t.Fatalf("stale pre-reset message delivered: q=%d d=%v", q, d)
		}
	}
	if d := pol.NextRequest(cleanStats()); d != 1 {
		t.Fatalf("post-reset delayed message wrong: %v", d)
	}
}
