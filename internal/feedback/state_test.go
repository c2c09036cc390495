package feedback

import (
	"math"
	"testing"

	"abg/internal/sched"
	"abg/internal/xrand"
)

// statefulPolicies enumerates every Policy implementation in this package
// with a representative configuration; the matching fresh constructor builds
// a second instance with the same configuration for restore.
func statefulPolicies() []struct {
	name string
	make func() Policy
} {
	return []struct {
		name string
		make func() Policy
	}{
		{"AControl", func() Policy { return NewAControl(0.2) }},
		{"AControl(r=0)", func() Policy { return NewAControl(0) }},
		{"AGreedy", func() Policy { return NewAGreedy(2, 0.8) }},
		{"FixedGain", func() Policy { return NewFixedGain(4) }},
		{"Static", func() Policy { return NewStatic(16) }},
		{"AutoRate", func() Policy { return NewAutoRate(0.2, 0.5) }},
	}
}

// randStats builds a deterministic pseudo-random quantum-stats sequence,
// including occasional empty and corrupt quanta so the round trip covers
// the sanitising paths.
func randStats(seed uint64, n int) []sched.QuantumStats {
	rng := xrand.New(seed)
	out := make([]sched.QuantumStats, n)
	for i := range out {
		a := rng.IntRange(1, 64)
		work := int64(rng.IntRange(0, a*100))
		cpl := rng.FloatRange(0.5, 100)
		st := sched.QuantumStats{
			Index:     i + 1,
			Start:     int64(i) * 100,
			Request:   rng.FloatRange(1, 64),
			Allotment: a,
			Length:    100,
			Steps:     100,
			Work:      work,
			CPL:       cpl,
			Deprived:  rng.Float64() < 0.3,
		}
		switch rng.Intn(10) {
		case 0: // empty quantum
			st.Work, st.CPL = 0, 0
		case 1: // corrupt measurement — must hit the sanitiser identically
			st.CPL = math.NaN()
		}
		out[i] = st
	}
	return out
}

// TestStateRoundTripEquivalence pins the snapshot contract for every policy
// implementation: marshal mid-run, unmarshal into a freshly constructed
// policy, and the two must emit bit-identical requests for the entire
// subsequent stats sequence.
func TestStateRoundTripEquivalence(t *testing.T) {
	stats := randStats(42, 200)
	for _, tc := range statefulPolicies() {
		for _, cut := range []int{0, 1, 17, 100, 199} {
			orig := tc.make()
			_ = orig.InitialRequest()
			for _, st := range stats[:cut] {
				_ = orig.NextRequest(&st)
			}

			blob, err := MarshalState(orig)
			if err != nil {
				t.Fatalf("%s: marshal at %d: %v", tc.name, cut, err)
			}
			restored := tc.make()
			_ = restored.InitialRequest() // constructed + admitted, as in recovery
			if err := UnmarshalState(restored, blob); err != nil {
				t.Fatalf("%s: unmarshal at %d: %v", tc.name, cut, err)
			}

			for i, st := range stats[cut:] {
				want := orig.NextRequest(&st)
				got := restored.NextRequest(&st)
				if math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("%s: cut %d: request %d diverges: %v != %v",
						tc.name, cut, i, got, want)
				}
			}
		}
	}
}

// TestStateTagMismatch pins that state restored onto the wrong policy type
// is rejected, not misparsed.
func TestStateTagMismatch(t *testing.T) {
	ac := NewAControl(0.2)
	blob, err := MarshalState(ac)
	if err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalState(NewAGreedy(2, 0.8), blob); err == nil {
		t.Error("A-Greedy accepted A-Control state")
	}
	if err := UnmarshalState(ac, blob[:1]); err == nil {
		t.Error("A-Control accepted truncated state")
	}
	if err := UnmarshalState(ac, nil); err == nil {
		t.Error("A-Control accepted empty state")
	}
}

// TestStateUnsupportedPolicy pins the helper's failure mode for policies
// without a codec.
func TestStateUnsupportedPolicy(t *testing.T) {
	if _, err := MarshalState(opaquePolicy{}); err == nil {
		t.Error("MarshalState accepted a policy without a codec")
	}
	if err := UnmarshalState(opaquePolicy{}, []byte{1}); err == nil {
		t.Error("UnmarshalState accepted a policy without a codec")
	}
}

type opaquePolicy struct{}

func (opaquePolicy) InitialRequest() float64                 { return 1 }
func (opaquePolicy) NextRequest(*sched.QuantumStats) float64 { return 1 }
func (opaquePolicy) Name() string                            { return "opaque" }
func (opaquePolicy) Reset()                                  {}
