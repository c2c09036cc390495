package main

import (
	"math"
	"sort"
	"time"

	"abg/internal/stats"
)

// samples is an unsorted collection of one quantity's observations.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

// addDur records a duration in milliseconds.
func (s *samples) addDur(d time.Duration) { s.add(float64(d) / 1e6) }

// quantile returns the q-quantile, interpolated between order statistics.
// It is NaN when s is empty, so a metric with no samples fails validation
// instead of reading as zero.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	return stats.Quantile(sorted, q)
}

func (s samples) median() float64 { return s.quantile(0.5) }

// mean is NaN for no samples, like quantile.
func (s samples) mean() float64 { return stats.Mean(s) }

// fastest keeps, for each position in a sequence of timings that a run
// repeats on identical input, the smallest value any repetition gave.
// Other tenants of a shared host only ever add time, so for a short piece
// of pure computation repeated a hundred times the fastest repetition
// tracks the code's own cost more steadily than a mean or median over the
// run does (bench/README.md, "Host speed").
type fastest []float64

// add folds one repetition in.
func (f *fastest) add(rep []float64) {
	for i, v := range rep {
		switch {
		case i == len(*f):
			*f = append(*f, v)
		case v < (*f)[i]:
			(*f)[i] = v
		}
	}
}

// sum is the time of a repetition made of the fastest pieces; NaN when
// nothing was added.
func (f fastest) sum() float64 {
	if len(f) == 0 {
		return math.NaN()
	}
	total := 0.0
	for _, v := range f {
		total += v
	}
	return total
}

// tailPercentiles are the tails the benchmark may report, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// supportedTail returns the highest percentile in tailPercentiles that has
// at least ten of n samples beyond it, or 0 when even the median has fewer.
// A tail estimated from fewer samples is mostly one outlier.
func supportedTail(n int) float64 {
	for _, q := range tailPercentiles {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0
}
