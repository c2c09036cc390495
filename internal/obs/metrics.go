package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use (the parallel sweep runners hammer these from every CPU).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous integer value (e.g. jobs currently active).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets (upper bounds,
// cumulative-style like Prometheus: counts[i] holds observations ≤
// bounds[i]; the final slot is the overflow bucket). The bucket layout is
// fixed at creation so Observe is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last = +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	min    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.min.Load()
		if v >= math.Float64frombits(old) || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// distribution by linear interpolation within the bucket that contains the
// target rank. The estimate is exact at bucket boundaries and degrades
// gracefully inside wide buckets — the same trade-off Prometheus's
// histogram_quantile makes, so abgd's /metrics consumers and the in-process
// consumers (abgload -json, /api/v1/state) agree on the estimator.
//
// Interpolation treats each finite bucket as uniform over (lower, upper].
// The first bucket interpolates from min(0, bound) to its bound so
// latency-style histograms (all-positive) do not report negative quantiles.
// A rank landing in the +Inf overflow bucket clamps to the largest
// observation.
//
// Quantile always returns a defined, finite value for finite observations:
// an empty histogram reports 0 (a fresh daemon's /state shows zero latency,
// not NaN — which would also fail JSON encoding), a single observation
// reports that observation exactly for every q (the min/max clamp), and q
// outside [0, 1] (or NaN) is clamped into the valid range.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 || math.IsNaN(q) {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	cum := float64(0)
	for i := range h.bounds {
		c := float64(h.counts[i].Load())
		if cum+c >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if h.bounds[i] < lo { // all-negative first bucket
				lo = h.bounds[i]
			}
			frac := (rank - cum) / c
			v := lo + (h.bounds[i]-lo)*frac
			// Clamp to the observed range: interpolation cannot know the
			// sample's true extremes, but the histogram tracked them.
			if min := math.Float64frombits(h.min.Load()); v < min {
				v = min
			}
			if max := math.Float64frombits(h.max.Load()); v > max {
				v = max
			}
			return v
		}
		cum += c
	}
	// Rank lands in the overflow bucket (or rounding left it past the finite
	// ones): the best estimate the histogram holds is the maximum.
	return math.Float64frombits(h.max.Load())
}

// Min returns the smallest observation (NaN when empty).
func (h *Histogram) Min() float64 {
	if h.count.Load() == 0 {
		return math.NaN()
	}
	return math.Float64frombits(h.min.Load())
}

// Max returns the largest observation (NaN when empty).
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return math.NaN()
	}
	return math.Float64frombits(h.max.Load())
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Buckets returns the (upperBound, count) pairs including the +Inf overflow
// bucket (bound = +Inf). Counts are per-bucket, not cumulative.
func (h *Histogram) Buckets() ([]float64, []int64) {
	bounds := make([]float64, len(h.bounds)+1)
	copy(bounds, h.bounds)
	bounds[len(h.bounds)] = math.Inf(1)
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// ExponentialBuckets returns n upper bounds start, start·factor, ….
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry is a named collection of metrics. Lookups get-or-create under a
// lock; hot paths should look a metric up once and keep the pointer (every
// metric's methods are lock-free). The zero value is not usable — call
// NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the CLIs publish over expvar; the
// experiment harness records its sweep totals here.
var Default = NewRegistry()

// Counter returns the counter registered under name, creating it if absent.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if absent.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds if absent (later calls may pass nil bounds
// to look it up).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Visit calls f once per registered metric with its name and the live
// metric value (*Counter, *Gauge, or *Histogram). The registration map is
// copied under the lock and f runs outside it, so f may take arbitrary time
// (e.g. render an exposition page) without stalling metric lookups.
// Iteration order is unspecified; exporters sort.
func (r *Registry) Visit(f func(name string, metric any)) {
	r.mu.Lock()
	type entry struct {
		name string
		m    any
	}
	entries := make([]entry, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		entries = append(entries, entry{name, c})
	}
	for name, g := range r.gauges {
		entries = append(entries, entry{name, g})
	}
	for name, h := range r.histograms {
		entries = append(entries, entry{name, h})
	}
	r.mu.Unlock()
	for _, e := range entries {
		f(e.name, e.m)
	}
}

// Reset drops every registered metric (tests).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
	r.histograms = make(map[string]*Histogram)
}

// Snapshot returns the registry as a plain map, histograms expanded into
// count/sum/mean/min/max plus per-bucket counts. This is also the expvar
// representation.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		hv := map[string]any{
			"count": h.Count(),
			"sum":   h.Sum(),
			"mean":  h.Mean(),
		}
		if h.Count() > 0 {
			hv["min"] = math.Float64frombits(h.min.Load())
			hv["max"] = math.Float64frombits(h.max.Load())
		}
		bounds, counts := h.Buckets()
		buckets := make(map[string]int64, len(bounds))
		for i, b := range bounds {
			key := "le_inf"
			if !math.IsInf(b, 1) {
				key = "le_" + strconv.FormatFloat(b, 'g', -1, 64)
			}
			buckets[key] = counts[i]
		}
		hv["buckets"] = buckets
		out[name] = hv
	}
	return out
}

// WriteSnapshot dumps the registry as sorted plain text, one metric per
// line — the format behind abgexp -metrics and the /debug/metrics endpoint.
func (r *Registry) WriteSnapshot(w io.Writer) error {
	r.mu.Lock()
	type hist struct {
		name string
		h    *Histogram
	}
	counters := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	hists := make([]hist, 0, len(r.histograms))
	for name, h := range r.histograms {
		hists = append(hists, hist{name, h})
	}
	r.mu.Unlock()

	lines := make([]string, 0, len(counters)+len(gauges)+len(hists))
	for name, v := range counters {
		lines = append(lines, fmt.Sprintf("counter %s %d", name, v))
	}
	for name, v := range gauges {
		lines = append(lines, fmt.Sprintf("gauge %s %d", name, v))
	}
	for _, hh := range hists {
		var sb strings.Builder
		fmt.Fprintf(&sb, "histogram %s count=%d mean=%.6g", hh.name, hh.h.Count(), hh.h.Mean())
		bounds, counts := hh.h.Buckets()
		for i, b := range bounds {
			if counts[i] == 0 {
				continue
			}
			if math.IsInf(b, 1) {
				fmt.Fprintf(&sb, " le_inf=%d", counts[i])
			} else {
				fmt.Fprintf(&sb, " le_%g=%d", b, counts[i])
			}
		}
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	for _, line := range lines {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// publishMu serialises the publication table against expvar.Publish, which
// panics on duplicates.
var (
	publishMu sync.Mutex
	published = make(map[string]*atomic.Pointer[Registry])
)

// PublishExpvar publishes the registry as a single expvar variable holding
// the Snapshot map. expvar variables cannot be unpublished, so the name is
// bound through an indirection the registry can be swapped behind:
// publishing a second registry under the same name rebinds the variable to
// the new registry instead of panicking (expvar's behaviour) or silently
// serving the stale one (this function's old behaviour). A daemon that
// tears an engine down and builds a fresh one — e.g. abgd restarting after
// crash recovery, or back-to-back in-process servers in tests — therefore
// always exposes the live registry, never a dead engine's counters.
func (r *Registry) PublishExpvar(name string) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if holder, ok := published[name]; ok {
		holder.Store(r)
		return
	}
	if expvar.Get(name) != nil {
		// The name was taken outside this registry mechanism (e.g. the
		// stdlib's own vars); leave it alone rather than panic.
		return
	}
	holder := &atomic.Pointer[Registry]{}
	holder.Store(r)
	published[name] = holder
	expvar.Publish(name, expvar.Func(func() any { return holder.Load().Snapshot() }))
}
