package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	s := samples{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := s.quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(samples(nil).median()) {
		t.Error("median of no samples should be NaN, so the metric fails validation")
	}
}

// Per-rep values reduce by median (set-up, heap) or mean (client overhead);
// neither may read an empty sample as zero.
func TestMedianAndMeanOverReps(t *testing.T) {
	reps := samples{0.9, 1.3, 1.0, 4.0}
	if got := reps.median(); math.Abs(got-1.15) > 1e-12 {
		t.Errorf("median = %v, want 1.15", got)
	}
	if got := reps.mean(); math.Abs(got-1.8) > 1e-12 {
		t.Errorf("mean = %v, want 1.8", got)
	}
	if !math.IsNaN(samples(nil).mean()) {
		t.Error("mean of no samples should be NaN")
	}
}

// Each position keeps its fastest repetition; a longer repetition extends
// the sequence.
func TestFastestPerPosition(t *testing.T) {
	var f fastest
	if !math.IsNaN(f.sum()) {
		t.Error("sum of no repetitions should be NaN")
	}
	f.add([]float64{3, 1, 4})
	f.add([]float64{2, 7, 1, 8})
	want := fastest{2, 1, 1, 8}
	if len(f) != len(want) {
		t.Fatalf("fastest = %v, want %v", f, want)
	}
	for i := range want {
		if f[i] != want[i] {
			t.Fatalf("fastest = %v, want %v", f, want)
		}
	}
	if f.sum() != 12 {
		t.Errorf("sum = %v, want 12", f.sum())
	}
}

// The highest percentile reported needs at least ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {39, 0.5}, {40, 0.75}, {100, 0.9},
		{199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
