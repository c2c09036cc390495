package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"abg/internal/obs"
	"abg/internal/obs/promexport"
	"abg/internal/persist"
)

// Server-layer metric families, exposed at GET /metrics in the Prometheus
// text format (internal/obs/promexport) alongside the engine's sim_*
// families fed by an obs.MetricsSubscriber on the daemon's bus:
//
//	abgd_http_requests_total{route,method,code}  counter
//	abgd_http_request_seconds{route}             histogram (wall latency)
//	abgd_http_inflight_requests                  gauge
//	abgd_admission_queue_depth                   gauge   (sampled at scrape)
//	abgd_admission_rejected_total                counter (429 responses)
//	abgd_sse_subscribers                         gauge   (sampled at scrape)
//	abgd_sse_dropped_total                       counter (slow-client drops)
//	abgd_sse_ring_evictions_total                counter
//	abgd_sse_ring_events                         gauge   (sampled at scrape)
//	abgd_sse_ring_bytes                          gauge   (sampled at scrape)
//	abgd_journal_appends_total{kind}             counter
//	abgd_journal_append_bytes_total              counter
//	abgd_journal_append_seconds                  histogram
//	abgd_journal_fsyncs_total                    counter
//	abgd_journal_fsync_seconds                   histogram
//	abgd_journal_lag_records                     gauge   (sampled at scrape)
//	abgd_snapshot_age_quanta                     gauge   (sampled at scrape)
//	abgd_snapshots_total                         counter
//	abgd_leader_epoch                            gauge   (sampled at scrape)
//	abgd_recovery_*                              gauges  (set once at boot)
//
// Counters and histograms are updated at event time on their own paths;
// the sampled gauges are refreshed by SampleMetrics under the scrape so
// one exposition is self-consistent.

// httpBuckets span sub-millisecond state reads to multi-second drains.
var httpBuckets = obs.ExponentialBuckets(0.001, 4, 7)

// journalBuckets span page-cache writes (~10µs) to slow fsyncs (~1s).
var journalBuckets = obs.ExponentialBuckets(1e-5, 4, 9)

// serverMetrics bundles the daemon's pre-resolved metric handles. The
// registry itself may be shared (cmd/abgd passes obs.Default so /debug/vars
// sees the same numbers); handles are resolved once so hot paths never
// rebuild label strings.
type serverMetrics struct {
	reg  *obs.Registry
	http *HTTPMetrics

	queueDepth *obs.Gauge
	rejected   *obs.Counter
	sseSubs    *obs.Gauge
	sseDropped *obs.Counter
	sseEvicted *obs.Counter
	ringEvents *obs.Gauge
	ringBytes  *obs.Gauge
	lag        *obs.Gauge
	snapAge    *obs.Gauge
	snapshots  *obs.Counter
	epochG     *obs.Gauge

	mu          sync.Mutex // guards the sampled deltas below
	droppedSeen int64
	evictedSeen int64
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &serverMetrics{
		reg:        reg,
		http:       NewHTTPMetrics(reg),
		queueDepth: reg.Gauge("abgd_admission_queue_depth"),
		rejected:   reg.Counter("abgd_admission_rejected_total"),
		sseSubs:    reg.Gauge("abgd_sse_subscribers"),
		sseDropped: reg.Counter("abgd_sse_dropped_total"),
		sseEvicted: reg.Counter("abgd_sse_ring_evictions_total"),
		ringEvents: reg.Gauge("abgd_sse_ring_events"),
		ringBytes:  reg.Gauge("abgd_sse_ring_bytes"),
		lag:        reg.Gauge("abgd_journal_lag_records"),
		snapAge:    reg.Gauge("abgd_snapshot_age_quanta"),
		snapshots:  reg.Counter("abgd_snapshots_total"),
		epochG:     reg.Gauge("abgd_leader_epoch"),
	}
}

// recordRecovery publishes the boot-time recovery outcome as gauges, one
// per RecoveryDTO count: abgd_recovery_resumed_jobs is ResumedJobs, every
// admitted job finished ones included, and abgd_recovery_requeued_jobs is
// RequeuedJobs.
func (m *serverMetrics) recordRecovery(rec RecoveryDTO) {
	set := func(name string, v int) { m.reg.Gauge(name).Set(int64(v)) }
	recovered := 0
	if rec.Recovered {
		recovered = 1
	}
	set("abgd_recovery_recovered", recovered)
	set("abgd_recovery_replayed_records", rec.ReplayedRecords)
	set("abgd_recovery_replayed_boundaries", rec.ReplayedBoundaries)
	set("abgd_recovery_resumed_jobs", rec.ResumedJobs)
	set("abgd_recovery_requeued_jobs", rec.RequeuedJobs)
}

// WriteJSON writes v with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// ErrorDTO is the uniform error body.
type ErrorDTO struct {
	Error string `json:"error"`
}

// statusRecorder captures the response status for the request counter while
// passing Flush through, so the SSE handler keeps streaming when wrapped.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// HTTPMetrics instruments one HTTP front door — a daemon's, or a cluster's
// — with the abgd_http_* families in its registry.
type HTTPMetrics struct {
	reg      *obs.Registry
	inflight *obs.Gauge
	// agg is the cross-route latency aggregate behind StateDTO's
	// httpLatencyP* fields. It lives in a private registry: /metrics
	// consumers aggregate the per-route histograms themselves.
	agg *obs.Histogram
}

// NewHTTPMetrics registers the front door's families in reg.
func NewHTTPMetrics(reg *obs.Registry) *HTTPMetrics {
	return &HTTPMetrics{
		reg:      reg,
		inflight: reg.Gauge("abgd_http_inflight_requests"),
		agg:      obs.NewRegistry().Histogram("http_all_seconds", httpBuckets),
	}
}

// Instrument wraps one route's handler with the HTTP metric families. The
// route label is the registration pattern's path — bounded cardinality, not
// the raw URL.
func (m *HTTPMetrics) Instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := m.reg.Histogram(
		promexport.Name("abgd_http_request_seconds", "route", route), httpBuckets)
	// The request counters, by method and status code, are named and
	// registered on their first request only.
	type methodCode struct {
		method string
		code   int
	}
	var mu sync.Mutex
	requests := make(map[methodCode]*obs.Counter)
	return func(w http.ResponseWriter, r *http.Request) {
		m.inflight.Add(1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		sec := time.Since(start).Seconds()
		m.inflight.Add(-1)
		code := rec.code
		if code == 0 { // handler wrote nothing: net/http sends 200
			code = http.StatusOK
		}
		mu.Lock()
		c, ok := requests[methodCode{r.Method, code}]
		if !ok {
			c = m.reg.Counter(promexport.Name("abgd_http_requests_total",
				"route", route, "method", r.Method, "code", strconv.Itoa(code)))
			requests[methodCode{r.Method, code}] = c
		}
		mu.Unlock()
		c.Inc()
		hist.Observe(sec)
		m.agg.Observe(sec)
	}
}

// FillState sets a state snapshot's request count and latency percentiles,
// estimated from the cross-route histogram; zero until the first request
// completes.
func (m *HTTPMetrics) FillState(st *StateDTO) {
	if n := m.agg.Count(); n > 0 {
		st.HTTPRequests = n
		st.HTTPLatencyP50Ms = m.agg.Quantile(0.5) * 1e3
		st.HTTPLatencyP95Ms = m.agg.Quantile(0.95) * 1e3
		st.HTTPLatencyP99Ms = m.agg.Quantile(0.99) * 1e3
	}
}

// instrument wraps one daemon route: the shared HTTP families, plus the
// serving epoch on every response — group-aware clients use it to detect
// (and refuse) answers from a deposed leader.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return s.metrics.http.Instrument(route, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(EpochHeader, strconv.FormatUint(uint64(s.epoch.Load()), 10))
		h(w, r)
	})
}

// journalMetrics adapts the registry onto persist.Metrics. Per-kind
// counters are resolved up front: Append runs on the submission hot path.
type journalMetrics struct {
	appends  map[byte]*obs.Counter
	unknown  *obs.Counter
	bytes    *obs.Counter
	writeSec *obs.Histogram
	fsyncs   *obs.Counter
	fsyncSec *obs.Histogram
}

func newJournalMetrics(reg *obs.Registry) *journalMetrics {
	jm := &journalMetrics{
		appends:  make(map[byte]*obs.Counter),
		unknown:  reg.Counter(promexport.Name("abgd_journal_appends_total", "kind", "unknown")),
		bytes:    reg.Counter("abgd_journal_append_bytes_total"),
		writeSec: reg.Histogram("abgd_journal_append_seconds", journalBuckets),
		fsyncs:   reg.Counter("abgd_journal_fsyncs_total"),
		fsyncSec: reg.Histogram("abgd_journal_fsync_seconds", journalBuckets),
	}
	// A follower of a format-1 leader appends KindSubmitV1 records; they
	// share the submit series with KindSubmit.
	for _, kind := range []byte{persist.KindHeader, persist.KindSubmit, persist.KindSubmitV1,
		persist.KindAdmit, persist.KindDrain, persist.KindSnapshot, persist.KindStep,
		persist.KindEpoch} {
		jm.appends[kind] = reg.Counter(
			promexport.Name("abgd_journal_appends_total", "kind", persist.KindName(kind)))
	}
	return jm
}

func (jm *journalMetrics) JournalAppend(kind byte, n int, d time.Duration) {
	c, ok := jm.appends[kind]
	if !ok {
		c = jm.unknown
	}
	c.Inc()
	jm.bytes.Add(int64(n))
	jm.writeSec.Observe(d.Seconds())
}

func (jm *journalMetrics) JournalSync(d time.Duration) {
	jm.fsyncs.Inc()
	jm.fsyncSec.Observe(d.Seconds())
}

// SampleMetrics refreshes the scrape-sampled gauges and folds the hub's
// atomic tallies into their counters.
func (s *Server) SampleMetrics() {
	m := s.metrics
	s.mu.Lock()
	m.queueDepth.Set(int64(len(s.queue)))
	m.snapAge.Set(int64(s.eng.QuantaElapsed() - s.lastSnapQ))
	j := s.journal
	s.mu.Unlock()
	if j != nil {
		m.lag.Set(int64(j.Lag()))
	}
	m.epochG.Set(int64(s.epoch.Load()))
	m.sseSubs.Set(s.hub.n.Load())
	events, bytes := s.hub.retained()
	m.ringEvents.Set(int64(events))
	m.ringBytes.Set(int64(bytes))
	m.mu.Lock()
	if d := s.hub.dropped.Load(); d > m.droppedSeen {
		m.sseDropped.Add(d - m.droppedSeen)
		m.droppedSeen = d
	}
	if e := s.hub.evicted.Load(); e > m.evictedSeen {
		m.sseEvicted.Add(e - m.evictedSeen)
		m.evictedSeen = e
	}
	m.mu.Unlock()
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.SampleMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = promexport.Write(w, s.metrics.reg)
}
