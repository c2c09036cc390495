package main

import (
	"strings"
	"testing"
	"time"
)

// TestRenderLeavesOutEmptySamples: a run without status polls (as the
// failover soaks make) prints no statistics row for them, and no NaN.
func TestRenderLeavesOutEmptySamples(t *testing.T) {
	for _, tc := range []struct {
		name    string
		r       *report
		present []string
	}{
		{"no status polls", &report{
			label: "failover", wall: time.Second, submitted: 3,
			submitMS:     []float64{1.5, 2, 4},
			responses:    []float64{100, 200, 300},
			deprivedFrac: []float64{0, 0.5, 1},
		}, []string{"submit ms", "response steps", "deprived-quanta fraction"}},
		{"no samples", &report{label: "empty", wall: time.Second}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			tc.r.render(&out)
			got := out.String()
			if strings.Contains(got, "NaN") {
				t.Fatalf("report prints NaN:\n%s", got)
			}
			if strings.Contains(got, "status ms") {
				t.Errorf("report prints a status latency row without status polls:\n%s", got)
			}
			for _, row := range tc.present {
				if !strings.Contains(got, row) {
					t.Errorf("report lacks the %q row:\n%s", row, got)
				}
			}
		})
	}
}
