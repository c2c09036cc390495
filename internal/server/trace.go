package server

import (
	"cmp"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"abg/internal/obs"
	"abg/internal/sim"
)

// Request tracing. A submission that carries an X-Abg-Trace-Id header (the
// Client generates one per Submit, stable across its retries) is followed
// end to end: the submit instant, the queued interval up to admission, every
// executed quantum, restarts, and completion, as obs.Spans on one track per
// job. Nothing is recorded as the jobs run: a bounded index, never
// journaled, maps the trace id to the submission's jobs and submit step,
// and a read builds the spans from the engine's record of each job, its
// status and timeline ring (Config.TimelineRing), as it builds a job's
// lifecycle history. A trace thus shows the quanta the ring holds, and only
// lifecycle spans with the ring disabled. GET /api/v1/traces/{id} serves it
// as JSON or, with ?format=perfetto, as Chrome trace-event JSON for
// https://ui.perfetto.dev. Timestamps are simulation steps (one step = one
// trace microsecond), the repo-wide trace convention.

// TraceHeader is the request header that carries the client trace id.
const TraceHeader = "X-Abg-Trace-Id"

const (
	maxTraces        = 256  // indexed traces; oldest evicted first
	maxSpansPerTrace = 4096 // per-trace span cap; overflow sets Truncated
	maxHistory       = 256  // history entries per job; the newest are kept
)

// TraceDTO is the JSON wire form of one trace.
type TraceDTO struct {
	ID   string `json:"id"`
	Jobs []int  `json:"jobs"`
	// Done counts the trace's jobs that have completed.
	Done int `json:"done"`
	// Truncated reports that the span cap dropped quantum spans (lifecycle
	// spans are always kept).
	Truncated bool       `json:"truncated,omitempty"`
	Spans     []obs.Span `json:"spans"`
}

// traceRef is one traced submission: count jobs with dense ids from first,
// accepted at simulation step submitted.
type traceRef struct {
	first, count int
	submitted    int64
}

// traceIndex maps trace ids to submissions, keeping the maxTraces newest;
// order lists their ids oldest first. Guarded by Server.mu.
type traceIndex struct {
	byID  map[string]traceRef
	order []string
}

// add indexes a submission under id. A re-registered id (a client retry
// that lost the ack but hit a fresh daemon) keeps the original entry.
func (x *traceIndex) add(id string, ref traceRef) {
	if _, ok := x.byID[id]; ok {
		return
	}
	if len(x.order) == maxTraces {
		delete(x.byID, x.order[0])
		x.order = x.order[1:]
	}
	x.order = append(x.order, id)
	x.byID[id] = ref
}

// jobRecord is what the engine keeps of one job: its status and retained
// timeline samples (zero for a job still queued).
type jobRecord struct {
	st      sim.JobStatus
	samples []sim.QuantumSample
	evicted int
}

// recordLocked copies job id's record out of the engine. Caller holds s.mu.
func (s *Server) recordLocked(id int) (r jobRecord) {
	r.st, _ = s.eng.JobStatus(id)
	r.samples, r.evicted, _ = s.eng.Timeline(id)
	return r
}

// admitted reports that the job has started and the engine still holds
// its record: a done job's goes with its timeline ring, which the engine
// keeps for the sim.MaxDoneTimelines newest done jobs only.
func (r *jobRecord) admitted() bool {
	released := r.st.State == sim.JobDone && len(r.samples) == 0 && r.evicted > 0
	return r.st.State != sim.JobPending && !released
}

// eachQuantum calls f on every executed sample in order (stalled ones have
// no allotment and are skipped) with whether its verdict flipped from the
// previous executed quantum's, and, if the job restarted after it, the
// work the restart lost: that of the attempt's retained samples. A job is
// satisfied before its first quantum; the oldest retained quantum of a
// ring that has evicted quanta reports no flip.
func (r *jobRecord) eachQuantum(f func(q *sim.QuantumSample, flipped bool, lost int64)) {
	prev, known := false, len(r.samples) > 0 && r.samples[0].Quantum == 1
	var attempt int64
	for i := range r.samples {
		q := &r.samples[i]
		if q.Allotment == 0 {
			continue
		}
		attempt += q.Work
		lost := int64(0)
		if q.Restarted {
			lost, attempt = attempt, 0
		}
		f(q, known && q.Deprived != prev, lost)
		prev, known = q.Deprived, true
	}
}

// HistoryEntry is one lifecycle transition of a job.
type HistoryEntry struct {
	Quantum int    `json:"quantum,omitempty"`
	Time    int64  `json:"time"`
	Event   string `json:"event"`
}

// JobHistory returns a job's newest maxHistory lifecycle transitions:
// admission, deprived↔satisfied flips, restarts and completion.
func (s *Server) JobHistory(id int) []HistoryEntry {
	s.mu.Lock()
	r := s.recordLocked(id)
	s.mu.Unlock()
	if !r.admitted() {
		return nil
	}
	h := []HistoryEntry{{Time: r.st.Release, Event: obs.EvJobAdmitted.String()}}
	r.eachQuantum(func(q *sim.QuantumSample, flipped bool, _ int64) {
		if flipped {
			kind := obs.EvSatisfied
			if q.Deprived {
				kind = obs.EvDeprived
			}
			h = append(h, HistoryEntry{Quantum: q.Quantum, Time: q.Time, Event: kind.String()})
		}
		if q.Restarted {
			h = append(h, HistoryEntry{Quantum: q.Quantum, Time: q.Time + int64(q.Steps),
				Event: obs.EvJobRestarted.String()})
		}
	})
	if r.st.State == sim.JobDone {
		h = append(h, HistoryEntry{Time: r.st.Completion, Event: obs.EvJobCompleted.String()})
	}
	return h[max(0, len(h)-maxHistory):]
}

// tracedSpan is a span keyed by where the engine emitted its event: at the
// boundary starting at step at, in admission (phase 0) or the quantum
// (phase 1), for job. A quantum span carries its sample in q, and is built
// only if the span cap keeps it.
type tracedSpan struct {
	at         int64
	phase, job int
	obs.Span
	q *sim.QuantumSample
}

// TraceByID builds an indexed trace from the engine's records of its jobs.
func (s *Server) TraceByID(id string) (TraceDTO, bool) {
	s.mu.Lock()
	ref, ok := s.traces.byID[id]
	recs := make([]jobRecord, ref.count)
	for i := range recs {
		recs[i] = s.recordLocked(ref.first + i)
	}
	s.mu.Unlock()
	if !ok {
		return TraceDTO{}, false
	}
	dto := TraceDTO{ID: id, Jobs: make([]int, ref.count)}
	var spans []tracedSpan
	for i := range recs {
		dto.Jobs[i] = ref.first + i
		spans = recs[i].appendSpans(spans, dto.Jobs[i], ref.submitted, int64(s.cfg.L))
		if recs[i].st.State == sim.JobDone {
			dto.Done++
		}
	}
	// The spans stand in the order the engine emitted their events: each
	// job's are in that order, and a stable sort interleaves the jobs.
	slices.SortStableFunc(spans, func(a, b tracedSpan) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.phase, b.phase), cmp.Compare(a.job, b.job))
	})
	dto.Spans = make([]obs.Span, 0, min(len(spans), maxSpansPerTrace))
	for _, sp := range spans {
		switch q := sp.q; {
		case q == nil:
			dto.Spans = append(dto.Spans, sp.Span)
		case len(dto.Spans) < maxSpansPerTrace:
			dto.Spans = append(dto.Spans, obs.Span{
				Name:  fmt.Sprintf("q%d a=%d", q.Quantum, q.Allotment),
				Track: sp.Track, Cat: "quantum", Start: q.Time, Dur: int64(q.Steps),
				Args: map[string]any{"request": q.Request, "allotment": q.Allotment,
					"work": q.Work, "parallelism": q.Parallelism, "deprived": q.Deprived},
			})
		default:
			dto.Truncated = true
		}
	}
	return dto, true
}

// appendSpans appends the spans of job id, submitted at step submitted on
// a machine with quantum length l.
func (r *jobRecord) appendSpans(spans []tracedSpan, id int, submitted, l int64) []tracedSpan {
	track := jobTrack(id)
	spans = append(spans, tracedSpan{at: -1, job: id, Span: obs.Span{
		Name: "submit", Track: track, Cat: "lifecycle", Start: submitted}})
	if !r.admitted() {
		return spans
	}
	// The daemon releases a job at the boundary that admits it.
	spans = append(spans, tracedSpan{at: r.st.Release, job: id, Span: obs.Span{
		Name: "queued", Track: track, Cat: "lifecycle", Start: submitted,
		Dur: r.st.Release - submitted, Args: map[string]any{"name": r.st.Name}}})
	r.eachQuantum(func(q *sim.QuantumSample, _ bool, lost int64) {
		spans = append(spans, tracedSpan{at: q.Time, phase: 1, job: id, Span: obs.Span{Track: track}, q: q})
		if q.Restarted {
			spans = append(spans, tracedSpan{at: q.Time, phase: 1, job: id, Span: obs.Span{
				Name: "restart", Track: track, Cat: "lifecycle", Start: q.Time + int64(q.Steps),
				Args: map[string]any{"lostWork": lost}}})
		}
	})
	if r.st.State != sim.JobDone {
		return spans
	}
	// A job completes in the quantum that ends at or after its completion
	// step, or, with no work, at admission.
	done := tracedSpan{at: (r.st.Completion - 1) / l * l, phase: 1, job: id, Span: obs.Span{
		Name: "complete", Track: track, Cat: "lifecycle", Start: r.st.Completion,
		Args: map[string]any{"work": r.st.Work, "response": r.st.Response}}}
	if r.st.NumQuanta == 0 {
		done.at, done.phase = r.st.Release, 0
	}
	return append(spans, done)
}

// jobTrack names the span track of one job.
func jobTrack(job int) string { return fmt.Sprintf("job %d", job) }

// WithJobIDs maps every job id of the trace, in Jobs and in the span
// tracks, through id: the cluster front door turns a shard's local ids into
// global ones with it. It rewrites d's slices, which must be its own, as
// TraceByID's copies are.
func (d TraceDTO) WithJobIDs(id func(local int) int) TraceDTO {
	tracks := make(map[string]string, len(d.Jobs))
	for i, j := range d.Jobs {
		d.Jobs[i] = id(j)
		tracks[jobTrack(j)] = jobTrack(d.Jobs[i])
	}
	for i, sp := range d.Spans {
		d.Spans[i].Track = tracks[sp.Track]
	}
	return d
}

// ServeTrace answers GET /api/v1/traces/{id} for the daemon and the cluster
// front door alike. find looks the trace up; the reply is its JSON or, with
// ?format=perfetto, its Chrome trace-event export.
func ServeTrace(w http.ResponseWriter, r *http.Request, find func(id string) (TraceDTO, bool)) {
	id := r.PathValue("id")
	dto, ok := find(id)
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorDTO{fmt.Sprintf("unknown trace %q", id)})
		return
	}
	if r.URL.Query().Get("format") == "perfetto" {
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteSpans(w, "trace "+id, dto.Spans)
		return
	}
	WriteJSON(w, http.StatusOK, dto)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	ServeTrace(w, r, s.TraceByID)
}

// PathJobID parses a job route's {id} path value, answering 400 when it is
// not an integer. The daemon and the cluster front door share it.
func PathJobID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorDTO{"bad job id"})
	}
	return id, err == nil
}

// TimelineDTO is the JSON wire form of one job's quantum timeline, served at
// GET /api/v1/jobs/{id}/timeline: the engine's bounded in-memory ring of
// per-quantum desire/allotment/parallelism/verdict samples.
type TimelineDTO struct {
	ID    int    `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"`
	// Ring is the configured ring depth; Evicted the samples the bound has
	// already discarded (oldest first).
	Ring    int                 `json:"ring"`
	Evicted int                 `json:"evicted"`
	Samples []sim.QuantumSample `json:"samples"`
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	id, ok := PathJobID(w, r)
	if !ok {
		return
	}
	dto, ok := s.JobTimeline(id)
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorDTO{fmt.Sprintf("unknown job %d", id)})
		return
	}
	WriteJSON(w, http.StatusOK, dto)
}
