package sim

import "math"

// QuantumSample is one recorded quantum of a job's in-engine timeline: the
// desire d(q) the job presented, the allotment a(q) the allocator granted,
// the measured parallelism A(q) the quantum achieved, and the resulting
// satisfied/deprived verdict — the per-quantum view behind abgd's
// GET /api/v1/jobs/{id}/timeline. Stalled quanta (the allocator granted
// nothing because |J| > P) are recorded too, with zero Steps and Work, so a
// timeline shows starvation rather than silently skipping it.
type QuantumSample struct {
	// Quantum is the job's 1-based executed-quantum index; a stalled sample
	// carries the index of the quantum the job was waiting to execute, so
	// consecutive stalls repeat the same value.
	Quantum int `json:"quantum"`
	// Boundary is the global boundary index at which the quantum started,
	// and Time its simulation step (Boundary·L).
	Boundary int   `json:"boundary"`
	Time     int64 `json:"time"`
	// Request is the continuous desire d(q); IntRequest its ceiling as
	// presented to the allocator.
	Request    float64 `json:"request"`
	IntRequest int     `json:"intRequest"`
	// Allotment is the granted a(q); zero on a stalled quantum.
	Allotment int `json:"allotment"`
	// Steps and Work are the executed steps and completed work of the
	// quantum; Parallelism is the measured A(q) = Work/Steps.
	Steps       int     `json:"steps"`
	Work        int64   `json:"work"`
	Parallelism float64 `json:"parallelism"`
	// Deprived is the quantum's verdict: a(q) < ⌈d(q)⌉ (always true for a
	// stalled quantum). Completed marks the job's final quantum.
	Deprived  bool `json:"deprived"`
	Completed bool `json:"completed"`
	// Restarted marks a quantum after which the job failed and restarted
	// from a fresh instance (RestartPlan), losing the attempt's work. It
	// sits in the padding after the two verdicts, so a sample stays 80 B.
	Restarted bool `json:"restarted,omitempty"`
}

// MaxDoneTimelines is how many of the most recently completed jobs keep
// their timeline ring. An older done job's ring is released, and its
// Timeline is empty with every sample it recorded counted as evicted; the
// daemon's trace and lifecycle history of the job, built from the ring
// (internal/server), go with it.
const MaxDoneTimelines = 4096

// timelineRing is a bounded per-job ring of QuantumSamples. It is purely
// observational state: snapshots exclude it (a recovered engine rebuilds
// samples only for the quanta it replays), and recording never emits events
// or touches scheduling state. buf grows by append up to max, so a short
// job holds only the samples it recorded, not max of them.
type timelineRing struct {
	buf   []QuantumSample
	max   int // retained samples at most
	next  int // next write position once buf is full
	total int // samples ever recorded
}

func newTimelineRing(capacity int) *timelineRing {
	return &timelineRing{max: capacity}
}

// record appends a sample, evicting the oldest once the ring is full.
func (r *timelineRing) record(s QuantumSample) {
	if r.max <= 0 {
		return
	}
	if len(r.buf) < r.max {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
		r.next = (r.next + 1) % len(r.buf)
	}
	r.total++
}

// markRestart sets Restarted on the newest sample.
func (r *timelineRing) markRestart() {
	r.buf[(r.next+len(r.buf)-1)%len(r.buf)].Restarted = true
}

// clip moves a finished job's samples, in chronological order, into a
// buffer of exactly their size: append's growth leaves up to twice the
// samples' room, which a done job would otherwise hold until its ring is
// released.
func (r *timelineRing) clip() {
	if cap(r.buf) > len(r.buf) {
		r.buf, r.next = r.samples(), 0
	}
}

// samples returns the retained samples in chronological order (a copy).
func (r *timelineRing) samples() []QuantumSample {
	out := make([]QuantumSample, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// recordSample stores one quantum sample on job s's ring, allocating the
// ring lazily so jobs that never run (pending, zero-work) carry no buffer.
func (e *Engine) recordSample(s *jobState, q QuantumSample) {
	if s.timeline == nil {
		s.timeline = newTimelineRing(e.cfg.TimelineRing)
	}
	s.timeline.record(q)
}

// retireTimeline records that job i completed and clips its ring. Once
// MaxDoneTimelines completed jobs keep their rings, it releases the oldest
// one's ring, keeping only its sample count.
func (e *Engine) retireTimeline(i int) {
	if r := e.states.at(i).timeline; r != nil {
		r.clip()
	}
	if len(e.doneTimelines) < MaxDoneTimelines {
		e.doneTimelines = append(e.doneTimelines, i)
		return
	}
	if old := e.states.at(e.doneTimelines[e.doneNext]); old.timeline != nil {
		old.dropped = uint32(min(uint64(old.timeline.total), math.MaxUint32))
		old.timeline = nil
	}
	e.doneTimelines[e.doneNext] = i
	e.doneNext = (e.doneNext + 1) % MaxDoneTimelines
}

// Timeline returns job id's retained quantum samples in chronological order
// plus the number of older samples the bounded ring has evicted. With
// MultiConfig.TimelineRing unset, or for a job that has not yet executed or
// stalled on any quantum, it returns an empty timeline; for a done job
// older than the MaxDoneTimelines newest, an empty one with every sample
// the job recorded evicted. ok is false only for an unknown id.
func (e *Engine) Timeline(id int) (samples []QuantumSample, evicted int, ok bool) {
	if id < 0 || id >= e.states.len() {
		return nil, 0, false
	}
	s := e.states.at(id)
	r := s.timeline
	if r == nil {
		return nil, int(s.dropped), true
	}
	return r.samples(), r.total - len(r.buf), true
}
