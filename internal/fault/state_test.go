package fault

import (
	"math"
	"testing"

	"abg/internal/feedback"
	"abg/internal/sched"
	"abg/internal/xrand"
)

// TestLossyChannelStateRoundTrip pins the crash-recovery contract for the
// lossy-channel decorator: marshal mid-run (with messages in flight),
// restore onto a freshly built decorator over a fresh inner policy, and the
// two must deliver bit-identical requests thereafter — drops, delays, dups
// and noise included.
func TestLossyChannelStateRoundTrip(t *testing.T) {
	plan := Plan{
		Seed: 99, Drop: 0.2, DelayProb: 0.3, Delay: 3, Dup: 0.2,
		NoiseMul: 0.2, NoiseAdd: 0.1,
	}
	rng := xrand.New(7)
	stats := make([]sched.QuantumStats, 160)
	for i := range stats {
		a := rng.IntRange(1, 32)
		stats[i] = sched.QuantumStats{
			Index: i + 1, Length: 50, Steps: 50,
			Allotment: a, Work: int64(rng.IntRange(1, a*50)),
			CPL: rng.FloatRange(0.5, 50), Request: rng.FloatRange(1, 32),
		}
	}

	for _, cut := range []int{0, 1, 13, 80, 159} {
		orig := plan.Policy(feedback.NewAControl(0.2), 3, nil)
		_ = orig.InitialRequest()
		for _, st := range stats[:cut] {
			_ = orig.NextRequest(&st)
		}
		blob, err := feedback.MarshalState(orig)
		if err != nil {
			t.Fatalf("cut %d: marshal: %v", cut, err)
		}

		restored := plan.Policy(feedback.NewAControl(0.2), 3, nil)
		_ = restored.InitialRequest()
		if err := feedback.UnmarshalState(restored, blob); err != nil {
			t.Fatalf("cut %d: unmarshal: %v", cut, err)
		}
		for i, st := range stats[cut:] {
			want := orig.NextRequest(&st)
			got := restored.NextRequest(&st)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("cut %d: request %d diverges: %v != %v", cut, i, got, want)
			}
		}
	}
}

// TestLossyChannelStateRejectsGarbage pins clean failures on corrupt state.
func TestLossyChannelStateRejectsGarbage(t *testing.T) {
	plan := Plan{Seed: 1, Drop: 0.5}
	pol := plan.Policy(feedback.NewAControl(0.2), 0, nil)
	if err := feedback.UnmarshalState(pol, nil); err == nil {
		t.Error("accepted empty state")
	}
	if err := feedback.UnmarshalState(pol, []byte{stateTagLossy, 0xff}); err == nil {
		t.Error("accepted truncated state")
	}
	blob, err := feedback.MarshalState(pol)
	if err != nil {
		t.Fatal(err)
	}
	blob[0] ^= 0x7f
	if err := feedback.UnmarshalState(pol, blob); err == nil {
		t.Error("accepted wrong tag")
	}
}
