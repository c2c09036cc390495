package fault

import (
	"math"
	"strings"
	"testing"
)

func TestUnitDeterministicAndUniform(t *testing.T) {
	if unit(7, saltChannel, 3, 9) != unit(7, saltChannel, 3, 9) {
		t.Fatal("unit is not deterministic")
	}
	if unit(7, saltChannel, 3, 9) == unit(8, saltChannel, 3, 9) {
		t.Fatal("seed does not reach the hash")
	}
	if unit(7, saltChannel, 3, 9) == unit(7, saltRestart, 3, 9) {
		t.Fatal("salt does not separate streams")
	}
	// Crude uniformity: mean of many draws near 1/2, all in [0,1).
	sum := 0.0
	const n = 10000
	for i := 0; i < n; i++ {
		u := unit(42, saltNoiseMul, uint64(i))
		if u < 0 || u >= 1 {
			t.Fatalf("draw %d outside [0,1): %v", i, u)
		}
		sum += u
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("draws not uniform: mean %v", mean)
	}
}

func TestPlanScale(t *testing.T) {
	full := Plan{
		Seed:     9,
		Capacity: StepCapacity{P: 100, Loss: 40, From: 10},
		Drop:     0.4, DelayProb: 0.2, Delay: 3, Dup: 0.1,
		NoiseMul: 0.5, NoiseAdd: 2,
		RestartProb: 0.02, RestartAt: []int{5}, MaxRestarts: 2,
	}
	zero := full.Scale(0)
	if !zero.IsZero() {
		t.Fatalf("Scale(0) not zero: %+v", zero)
	}
	if zero.Seed != 9 {
		t.Fatalf("Scale(0) dropped the seed")
	}
	if got := full.Scale(1); got.Drop != 0.4 || got.NoiseAdd != 2 ||
		got.Capacity.(StepCapacity).Loss != 40 {
		t.Fatalf("Scale(1) changed the plan: %+v", got)
	}
	half := full.Scale(0.5)
	if half.Drop != 0.2 || half.DelayProb != 0.1 || half.NoiseMul != 0.25 {
		t.Fatalf("Scale(0.5) wrong: %+v", half)
	}
	if half.Capacity.(StepCapacity).Loss != 20 {
		t.Fatalf("Scale(0.5) capacity loss: %+v", half.Capacity)
	}
	if half.Delay != 3 || half.MaxRestarts != 2 {
		t.Fatalf("Scale must not scale structural fields: %+v", half)
	}
	if over := full.Scale(10); over.Drop != 1 || over.Dup != 1 {
		t.Fatalf("Scale(10) must clamp probabilities: %+v", over)
	}
}

func TestCapacityModels(t *testing.T) {
	step := StepCapacity{P: 100, Loss: 30, From: 10, Until: 20}
	for q, want := range map[int]int{1: 100, 9: 100, 10: 70, 19: 70, 20: 100, 500: 100} {
		if got := step.At(q); got != want {
			t.Fatalf("step At(%d) = %d, want %d", q, got, want)
		}
	}
	forever := StepCapacity{P: 100, Loss: 30, From: 10}
	if forever.At(10_000) != 70 {
		t.Fatal("step without Until must never recover")
	}

	sine := SineCapacity{P: 100, Amp: 40, Period: 16}
	lo, hi := 101, -1
	for q := 1; q <= 64; q++ {
		v := sine.At(q)
		if v < 60 || v > 100 {
			t.Fatalf("sine At(%d) = %d outside [60,100]", q, v)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo != 60 || hi != 100 {
		t.Fatalf("sine did not reach its envelope: [%d,%d]", lo, hi)
	}

	churn := ChurnCapacity{P: 100, MaxLoss: 50, Window: 8, Seed: 3}
	if churn.At(1) != churn.At(7) {
		t.Fatal("churn must be constant within a window")
	}
	distinct := map[int]bool{}
	for q := 1; q <= 400; q += 8 {
		v := churn.At(q)
		if v < 50 || v > 100 {
			t.Fatalf("churn At(%d) = %d outside [50,100]", q, v)
		}
		distinct[v] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("churn never varies: %v", distinct)
	}
	if churn.At(33) != churn.At(33) {
		t.Fatal("churn not deterministic")
	}

	// Scaled(0) must disable every model.
	for _, s := range []Scalable{step, sine, churn} {
		if s.Scaled(0) != nil {
			t.Fatalf("%s Scaled(0) != nil", s.Name())
		}
		if s.Scaled(1) == nil {
			t.Fatalf("%s Scaled(1) == nil", s.Name())
		}
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "drop=0.2,delay=3:0.1,dup=0.05,noise=0.4,anoise=1.5," +
		"restart=0.01,restartat=5+12,maxrestarts=2,cap=step:0.5@30-60,seed=77"
	plan, err := ParseSpec(spec, 128)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Drop != 0.2 || plan.Delay != 3 || plan.DelayProb != 0.1 ||
		plan.Dup != 0.05 || plan.NoiseMul != 0.4 || plan.NoiseAdd != 1.5 ||
		plan.RestartProb != 0.01 || plan.MaxRestarts != 2 || plan.Seed != 77 {
		t.Fatalf("parsed plan wrong: %+v", plan)
	}
	if len(plan.RestartAt) != 2 || plan.RestartAt[0] != 5 || plan.RestartAt[1] != 12 {
		t.Fatalf("restartat wrong: %v", plan.RestartAt)
	}
	sc, ok := plan.Capacity.(StepCapacity)
	if !ok || sc.P != 128 || sc.Loss != 64 || sc.From != 30 || sc.Until != 60 {
		t.Fatalf("capacity wrong: %+v", plan.Capacity)
	}
	// String renders the same clauses (order is canonical, cap via Name).
	s := plan.String()
	for _, want := range []string{"drop=0.2", "delay=3:0.1", "dup=0.05",
		"noise=0.4", "anoise=1.5", "restart=0.01", "restartat=5+12",
		"maxrestarts=2", "cap=step(128-64@30-60)", "seed=77"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() %q missing %q", s, want)
		}
	}
}

func TestParseSpecVariants(t *testing.T) {
	for _, spec := range []string{"", "none", "  "} {
		plan, err := ParseSpec(spec, 64)
		if err != nil || !plan.IsZero() {
			t.Fatalf("spec %q: plan %+v err %v", spec, plan, err)
		}
	}
	if plan, err := ParseSpec("cap=sine:0.25:16", 64); err != nil {
		t.Fatal(err)
	} else if sc := plan.Capacity.(SineCapacity); sc.Amp != 16 || sc.Period != 16 {
		t.Fatalf("sine parse: %+v", sc)
	}
	if plan, err := ParseSpec("cap=churn:0.5:8,seed=3", 64); err != nil {
		t.Fatal(err)
	} else if cc := plan.Capacity.(ChurnCapacity); cc.MaxLoss != 32 || cc.Window != 8 {
		t.Fatalf("churn parse: %+v", cc)
	}
	if s := (Plan{}).String(); s != "none" {
		t.Fatalf("zero plan String: %q", s)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"drop",              // not key=value
		"bogus=1",           // unknown clause
		"drop=1.5",          // probability out of range
		"drop=-0.1",         // negative probability
		"delay=0:0.5",       // zero delay
		"delay=2",           // missing probability
		"noise=-1",          // negative amplitude
		"restartat=0",       // quantum < 1
		"restartat=3+x",     // junk quantum
		"maxrestarts=-1",    // negative cap
		"cap=step:0.5",      // missing @Q
		"cap=step:2@5",      // fraction > 1
		"cap=step:0.5@0",    // quantum < 1
		"cap=step:0.5@10-5", // recovery before drop
		"cap=sine:0.5:1",    // period < 2
		"cap=churn:0.5:0",   // window < 1
		"cap=warp:0.5:3",    // unknown model
		"seed=abc",          // junk seed
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec, 64); err == nil {
			t.Fatalf("spec %q: expected error", spec)
		}
	}
	if _, err := ParseSpec("drop=0.1", 0); err == nil {
		t.Fatal("machine size 0: expected error")
	}
}

func TestRestartHook(t *testing.T) {
	if (Plan{}).RestartHook(0) != nil {
		t.Fatal("zero plan must have no restart hook")
	}
	hook := Plan{RestartAt: []int{4, 9}}.RestartHook(0)
	for q := 1; q <= 12; q++ {
		want := q == 4 || q == 9
		if hook(q) != want {
			t.Fatalf("deterministic hook at q=%d: %v", q, hook(q))
		}
	}
	// Probabilistic schedule: deterministic per (seed, job, quantum), job-
	// and seed-dependent, and roughly at the configured rate.
	p := Plan{Seed: 5, RestartProb: 0.25}
	h0, h0b, h1 := p.RestartHook(0), p.RestartHook(0), p.RestartHook(1)
	fires0, fires1, differ := 0, 0, false
	for q := 1; q <= 2000; q++ {
		if h0(q) != h0b(q) {
			t.Fatalf("hook not deterministic at q=%d", q)
		}
		if h0(q) != h1(q) {
			differ = true
		}
		if h0(q) {
			fires0++
		}
		if h1(q) {
			fires1++
		}
	}
	if !differ {
		t.Fatal("jobs share one failure schedule")
	}
	for _, fires := range []int{fires0, fires1} {
		if fires < 400 || fires > 600 {
			t.Fatalf("fire rate %d/2000 far from 0.25", fires)
		}
	}
}
