package main

import (
	"math"
	"testing"
)

// The probe reads NaN until sampled, so a workload that never sampled it
// fails validation instead of dividing by zero, and a sample allocates
// nothing, so it cannot trigger a collection or move a workload's
// allocation counts.
func TestHostProbe(t *testing.T) {
	h := newHostProbe()
	if !math.IsNaN(h.slowdown()) {
		t.Errorf("slowdown before any sample = %v, want NaN", h.slowdown())
	}
	h.sample()
	if s := h.slowdown(); !(s > 0) || math.IsInf(s, 0) {
		t.Fatalf("slowdown = %v, want a positive finite ratio", s)
	}
	if len(h.fast) != probePieces {
		t.Errorf("%d pieces kept, want %d", len(h.fast), probePieces)
	}
	if n := testing.AllocsPerRun(2, h.sample); n != 0 {
		t.Errorf("sample allocates %v times", n)
	}
}
