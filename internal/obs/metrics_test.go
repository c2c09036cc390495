package obs

import (
	"encoding/json"
	"expvar"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("hits") != c {
		t.Fatal("counter lookup is not idempotent")
	}
	g := r.Gauge("active")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+5+50+500+5000; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 4 || !math.IsInf(bounds[3], 1) {
		t.Fatalf("bounds = %v", bounds)
	}
	// ≤1: 0.5 and 1.0; ≤10: 5; ≤100: 50; overflow: 500 and 5000.
	want := []int64{2, 1, 1, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, counts[i], want[i], counts)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewRegistry().Histogram("x", []float64{1, 2, 3, 4, 5, 6, 7, 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 10))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if got, want := h.Sum(), 8.0*1000*4.5; math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestBucketHelpers(t *testing.T) {
	if got := ExponentialBuckets(1, 2, 4); got[3] != 8 {
		t.Fatalf("exponential buckets: %v", got)
	}
}

func TestSnapshotAndWriteSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("sims").Add(7)
	r.Gauge("active").Set(2)
	r.Histogram("waste", []float64{10, 100}).Observe(42)

	snap := r.Snapshot()
	if snap["sims"] != int64(7) || snap["active"] != int64(2) {
		t.Fatalf("snapshot = %v", snap)
	}
	hv, ok := snap["waste"].(map[string]any)
	if !ok || hv["count"] != int64(1) {
		t.Fatalf("histogram snapshot = %v", snap["waste"])
	}

	var sb strings.Builder
	if err := r.WriteSnapshot(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{"counter sims 7", "gauge active 2", "histogram waste count=1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("snapshot text missing %q:\n%s", want, text)
		}
	}
	// Sorted output: counter < gauge < histogram lines.
	if strings.Index(text, "counter") > strings.Index(text, "gauge") {
		t.Fatalf("snapshot not sorted:\n%s", text)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	// Empty histogram: every quantile is a defined 0, never NaN/∞ — these
	// values flow straight into /state JSON on a fresh daemon.
	for _, q := range []float64{0, 0.5, 0.95, 1, -3, 2, math.NaN()} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
	}
	// 100 uniform samples 1..100: every value v lands in bucket ⌈v/10⌉.
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.5, 50, 1},   // exact at a bucket boundary
		{0.95, 95, 1},  // interpolated inside (90, 100]
		{0.99, 99, 1},  //
		{0.1, 10, 1},   //
		{0, 1, 1},      // clamped to the observed min
		{1, 100, 1e-9}, // clamped to the observed max
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("Quantile(%v) = %v, want %v ± %v", tc.q, got, tc.want, tc.tol)
		}
	}
	// Out-of-range (and NaN) q clamps into [0, 1] instead of going NaN.
	for _, tc := range []struct{ q, want float64 }{
		{-0.1, 1}, {1.1, 100}, {math.NaN(), 1},
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("clamped Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

// TestHistogramQuantileDefined is the table regression for the edge cases
// that used to leak NaN into /state: empty histograms, single samples (in a
// finite bucket, at a bucket bound, and in the overflow bucket), and
// no-bucket histograms. Every combination must yield a defined, finite
// value.
func TestHistogramQuantileDefined(t *testing.T) {
	qs := []float64{0, 0.25, 0.5, 0.95, 0.99, 1}
	cases := []struct {
		name   string
		bounds []float64
		sample []float64
		want   func(q float64) float64
	}{
		{"empty", []float64{1, 2, 3, 4}, nil, func(float64) float64 { return 0 }},
		{"empty-no-buckets", nil, nil, func(float64) float64 { return 0 }},
		{"single-mid-bucket", []float64{10, 20}, []float64{13}, func(float64) float64 { return 13 }},
		{"single-at-bound", []float64{10, 20}, []float64{10}, func(float64) float64 { return 10 }},
		{"single-overflow", []float64{1}, []float64{42}, func(float64) float64 { return 42 }},
		{"single-no-buckets", nil, []float64{5}, func(float64) float64 { return 5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewRegistry().Histogram("h", tc.bounds)
			for _, v := range tc.sample {
				h.Observe(v)
			}
			for _, q := range qs {
				got := h.Quantile(q)
				if math.IsNaN(got) || math.IsInf(got, 0) {
					t.Fatalf("Quantile(%v) = %v, want a finite value", q, got)
				}
				if want := tc.want(q); got != want {
					t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
				}
			}
		})
	}
}

func TestHistogramQuantileOverflowBucket(t *testing.T) {
	h := NewRegistry().Histogram("x", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(40) // overflow bucket
	// p99 rank lands in +Inf: the histogram's best estimate is the max.
	if got := h.Quantile(0.99); got != 40 {
		t.Fatalf("overflow quantile = %v, want 40", got)
	}
	if got := h.Min(); got != 0.5 {
		t.Fatalf("min = %v, want 0.5", got)
	}
	if got := h.Max(); got != 40 {
		t.Fatalf("max = %v, want 40", got)
	}
}

func TestHistogramQuantileSingleObservation(t *testing.T) {
	h := NewRegistry().Histogram("x", ExponentialBuckets(1, 2, 8))
	h.Observe(7)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Fatalf("Quantile(%v) = %v, want 7 (clamped to the only sample)", q, got)
		}
	}
}

func TestVisit(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Gauge("g").Set(5)
	r.Histogram("h", []float64{1}).Observe(3)
	seen := map[string]string{}
	r.Visit(func(name string, m any) {
		switch m.(type) {
		case *Counter:
			seen[name] = "counter"
		case *Gauge:
			seen[name] = "gauge"
		case *Histogram:
			seen[name] = "histogram"
		default:
			t.Fatalf("Visit(%q): unexpected metric type %T", name, m)
		}
	})
	want := map[string]string{"c": "counter", "g": "gauge", "h": "histogram"}
	for name, kind := range want {
		if seen[name] != kind {
			t.Fatalf("Visit saw %v, want %v", seen, want)
		}
	}
}

func TestPublishExpvar(t *testing.T) {
	r := NewRegistry()
	r.Counter("published_counter").Add(3)
	r.PublishExpvar("abg_test_metrics")
	r.PublishExpvar("abg_test_metrics") // second publish must not panic
	v := expvar.Get("abg_test_metrics")
	if v == nil {
		t.Fatal("registry not published")
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(v.String()), &decoded); err != nil {
		t.Fatalf("expvar JSON: %v", err)
	}
	if decoded["published_counter"] != float64(3) {
		t.Fatalf("expvar snapshot = %v", decoded)
	}
}

func TestPublishExpvarRebind(t *testing.T) {
	// Regression: publishing a second registry under an already-published
	// name must rebind the expvar to the new registry (a daemon that
	// rebuilt its engine after recovery), not keep serving the stale one.
	a := NewRegistry()
	a.Counter("generation").Add(1)
	a.PublishExpvar("abg_test_rebind")
	b := NewRegistry()
	b.Counter("generation").Add(2)
	b.PublishExpvar("abg_test_rebind") // must not panic, must win
	var decoded map[string]any
	if err := json.Unmarshal([]byte(expvar.Get("abg_test_rebind").String()), &decoded); err != nil {
		t.Fatalf("expvar JSON: %v", err)
	}
	if decoded["generation"] != float64(2) {
		t.Fatalf("expvar still serves the stale registry: %v", decoded)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Reset()
	if r.Counter("c").Value() != 0 {
		t.Fatal("reset did not clear counters")
	}
}
