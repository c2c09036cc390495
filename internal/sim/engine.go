package sim

import (
	"fmt"
	"slices"

	"abg/internal/alloc"
	"abg/internal/obs"
	"abg/internal/sched"
)

// Engine is the incremental form of the multiprogrammed simulator: the body
// of RunMulti exposed as a stepped state machine. Where RunMulti materialises
// the whole job set up front and runs to completion, an Engine accepts jobs
// while it runs — Submit enqueues a job that becomes schedulable at the next
// quantum boundary, Step advances the simulation by exactly one boundary, and
// Drain stops admission so the remaining work can be run down. RunMulti is a
// thin wrapper over the Engine, and stepped execution reproduces its event
// stream and MultiResult bit-identically.
//
// Costs. Beside its job tables the engine keeps two indexes of job ids in
// ascending order: waiting (submitted, not started) and live (started,
// unfinished). A Step walks waiting and live only, so a boundary costs
// O(waiting + live jobs) however many jobs the engine has finished, and
// AggregateRequest O(live). Submit is O(1) and touches no index. Job
// listings (Statuses, Result, ResumeStates) and snapshots still cost
// O(jobs submitted).
//
// A done job keeps only its outcome. When a job completes, the engine
// drops its instance, policy and restart hook (and with them the job's
// profile, unless the caller holds it) and keeps, beside the outcome, what
// JobStatus reports of the final quantum: request, allotment, A(q) and the
// deprived flag. A snapshot's done entry holds just that. Timeline rings
// (MultiConfig.TimelineRing) are kept for the MaxDoneTimelines most
// recently completed jobs only. What a done job still costs is its three
// table records, about 340 B.
//
// An Engine is not safe for concurrent use; callers that drive it from
// multiple goroutines (e.g. abg/internal/server) must serialise access.
type Engine struct {
	cfg  MultiConfig
	maxQ int
	L64  int64

	// The job tables: record i of each is job i's. They are paged (see
	// table), so Submit never moves a record, not even while Step holds a
	// pointer to it across an event emission.
	specs    table[JobSpec] // the engine's own copy of each job's spec
	states   table[jobState]
	outcomes table[JobOutcome]

	// The job indexes, ids in ascending order (see Step for why the order
	// matters). Every unfinished job is in exactly one of them; done jobs
	// are in neither. The waiting index is the waiting list, whose ids are
	// all below unseen, followed by every id from unseen on: Submit adds a
	// job to it by adding the job to the tables, and admission moves the
	// jobs it looked at but found released in the future into the list.
	waiting []int // not started, released after the boundary that last looked
	unseen  int   // jobs [unseen, NumJobs()) are waiting and not yet looked at
	live    []int // started, unfinished: the jobs a quantum executes

	res       MultiResult // totals; Result fills Jobs from outcomes
	remaining int
	running   int   // started, unfinished jobs
	respSum   int64 // Σ Response over done jobs
	k         int   // next quantum boundary to process
	capNow    int   // last emitted effective capacity
	draining  bool

	// doneTimelines is a ring of the ids of the newest completed jobs,
	// whose timeline rings are kept; once it is full, doneTimelines[doneNext]
	// is the oldest, whose ring the next completion releases.
	doneTimelines []int
	doneNext      int

	// Reusable per-boundary scratch. admitted holds the ids a Step's
	// admission started, to be merged into live; allot wraps the configured
	// allocator with buffer reuse; scratch is the quantum loop's buffers;
	// statusBuf backs Statuses.
	admitted  []int
	requests  []int
	allot     *alloc.Allotter
	scratch   sched.Scratch
	statusBuf []JobStatus
}

// jobState is the engine's per-job bookkeeping.
type jobState struct {
	request  float64
	started  bool
	done     bool
	deprived bool
	// dropped counts the samples of a released timeline ring (a done job
	// older than the MaxDoneTimelines newest); it fits the padding before
	// attemptWork.
	dropped     uint32
	attemptWork int64 // work completed since the job's last (re)start
	// last is the job's last executed quantum. Step's execute loop measures
	// into it and its reduce loop fills in the engine's fields (Index,
	// Start, Request, Deprived) in place; the policy reads it by pointer.
	last sched.QuantumStats
	// timeline is the bounded quantum-sample ring (MultiConfig.TimelineRing);
	// observational only, excluded from snapshots.
	timeline *timelineRing
}

// finish marks the job done and clears what it no longer tracks: the
// deprivation tracker and the attempt work. What a done snapshot entry
// holds of it is its request and, of last, what JobStatus reports of the
// final quantum: allotment, the work and critical path whose ratio is A(q),
// and the deprived flag.
func (s *jobState) finish() {
	s.done, s.deprived, s.attemptWork = true, false, 0
}

// StepInfo reports what one Step processed.
type StepInfo struct {
	// Boundary is the global boundary index that was processed (the k-th
	// quantum boundary, 0-based); Time is its simulation step, k·L.
	Boundary int
	Time     int64
	// Executed reports that at least one job was active and a quantum ran.
	Executed bool
	// Idle reports that no unfinished job exists: time advanced one quantum
	// with nothing to do (only a live service ever observes this).
	Idle bool
	// FastForwarded reports that every unfinished job is released in the
	// future and the clock jumped to the boundary at or after the earliest
	// release (the same jump RunMulti performs).
	FastForwarded bool
	// Active is the number of jobs that took part in the executed quantum.
	Active int
	// Completed lists the ids of jobs that finished during this step.
	Completed []int
	// QuantaElapsed is the global boundary count after this step.
	QuantaElapsed int
}

// JobState classifies a job's lifecycle stage.
type JobState uint8

const (
	// JobPending: submitted, but its release is still in the future.
	JobPending JobState = iota
	// JobRunning: admitted and executing.
	JobRunning
	// JobDone: all tasks complete.
	JobDone
)

// String returns the state's lowercase name.
func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// JobStatus is a live snapshot of one job — the per-job view a service
// exposes while the engine runs. Request is the current continuous d(q);
// Allotment, Parallelism and Deprived describe the job's last executed
// quantum.
type JobStatus struct {
	ID           int
	Name         string
	State        JobState
	Release      int64
	Completion   int64 // valid when State == JobDone
	Response     int64 // valid when State == JobDone
	Work         int64
	CriticalPath int
	Request      float64 // current continuous request d(q)
	IntRequest   int     // ⌈d(q)⌉ as presented to the allocator
	Allotment    int     // a(q) of the last executed quantum
	Parallelism  float64 // measured A(q) of the last executed quantum
	Deprived     bool    // last executed quantum was deprived
	NumQuanta    int
	DeprivedQ    int
	Restarts     int
	LostWork     int64
	Waste        int64
}

// NewEngine validates the machine configuration and returns an empty engine
// at boundary 0 with no jobs submitted.
func NewEngine(cfg MultiConfig) (*Engine, error) {
	if cfg.P < 1 || cfg.L < 1 {
		return nil, fmt.Errorf("sim: invalid machine P=%d L=%d", cfg.P, cfg.L)
	}
	if cfg.Allocator == nil {
		return nil, fmt.Errorf("sim: nil allocator")
	}
	maxQ := cfg.MaxQuanta
	if maxQ <= 0 {
		maxQ = DefaultMaxQuanta
	}
	return &Engine{cfg: cfg, maxQ: maxQ, L64: int64(cfg.L), capNow: -1,
		allot: alloc.NewAllotter(cfg.Allocator)}, nil
}

// Submit adds a job to the running simulation and returns its id (dense,
// in submission order). The job becomes schedulable at the first boundary at
// or after its Release; a Release at or before Now lands on the next
// processed boundary. The engine owns a copy of the spec, so a restart never
// mutates the caller's value. Submit fails after Drain.
func (e *Engine) Submit(spec JobSpec) (int, error) {
	if e.draining {
		return -1, fmt.Errorf("sim: engine is draining, submission rejected")
	}
	if spec.Inst == nil || spec.Policy == nil {
		return -1, fmt.Errorf("sim: job %d missing instance or policy", e.states.len())
	}
	id := e.push(&spec, &jobState{}, &JobOutcome{
		Name:         spec.Name,
		Release:      spec.Release,
		Work:         spec.Inst.TotalWork(),
		CriticalPath: spec.Inst.CriticalPathLen(),
	})
	e.remaining++
	return id, nil
}

// push appends one job's records, copied into the job tables, and returns
// its id. Submit and RestoreEngine both add jobs through it.
func (e *Engine) push(spec *JobSpec, s *jobState, j *JobOutcome) int {
	id := e.states.len()
	*e.specs.push() = *spec
	*e.states.push() = *s
	*e.outcomes.push() = *j
	return id
}

// Drain stops admission: every later Submit fails, while the jobs already
// accepted keep running to completion. Draining is idempotent.
func (e *Engine) Drain() { e.draining = true }

// Draining reports whether Drain has been called.
func (e *Engine) Draining() bool { return e.draining }

// Done reports whether every submitted job has completed.
func (e *Engine) Done() bool { return e.remaining == 0 }

// NumJobs returns the number of jobs submitted so far.
func (e *Engine) NumJobs() int { return e.states.len() }

// Boundary returns the index of the next quantum boundary to process.
func (e *Engine) Boundary() int { return e.k }

// Now returns the simulation time of the next boundary, Boundary()·L.
func (e *Engine) Now() int64 { return int64(e.k) * e.L64 }

// QuantaElapsed returns the number of executed global boundaries.
func (e *Engine) QuantaElapsed() int { return e.res.QuantaElapsed }

// Remaining returns the number of admitted-but-unfinished jobs.
func (e *Engine) Remaining() int { return e.remaining }

// Tally is the engine's job count by lifecycle stage plus the run's totals:
// what a service's state endpoint reports. The engine keeps it as it runs
// (and RestoreEngine rebuilds it), so reading it costs O(1) however many
// jobs the engine has served. It always agrees with Statuses and Result.
type Tally struct {
	Pending, Running, Done int
	ResponseSum            int64 // Σ Response over done jobs
	Makespan, TotalWaste   int64 // as in Result
}

// Tally returns the running job counts and totals.
func (e *Engine) Tally() Tally {
	return Tally{
		Pending:     e.remaining - e.running,
		Running:     e.running,
		Done:        e.states.len() - e.remaining,
		ResponseSum: e.respSum,
		Makespan:    e.res.Makespan,
		TotalWaste:  e.res.TotalWaste,
	}
}

// FirstUnfinished returns the lowest job id at or above hint that is not
// done, or NumJobs() when there is none. Jobs below hint are taken as done:
// a caller advancing a watermark passes its previous value, so the scans
// cost O(1) per job over the engine's life.
func (e *Engine) FirstUnfinished(hint int) int {
	for hint < e.states.len() && e.states.at(hint).done {
		hint++
	}
	return hint
}

// AggregateRequest sums the integer processor requests of every admitted,
// unfinished job — the engine's aggregate desire for the next quantum. This
// is the second level of the paper's feedback protocol: just as each job
// reports a desire d(q) to its engine, an engine reports Σ d(q) to a
// cluster-level allocator, which partitions the machine across engine shards
// by the same desire/allotment rules (see internal/cluster). The value is a
// pure function of engine state and reading it never perturbs the run. It
// sums the live index, so it costs O(live jobs), not O(jobs served); read
// from a subscriber during Step, it also counts the jobs admission has
// started but not yet merged into live, and skips those the reduce loop
// has completed but not yet dropped.
func (e *Engine) AggregateRequest() int {
	total := 0
	for _, ids := range [2][]int{e.live, e.admitted} {
		for _, i := range ids {
			if s := e.states.at(i); !s.done {
				total += RoundRequest(s.request)
			}
		}
	}
	return total
}

// Step advances the simulation by one quantum boundary: it admits every
// submitted job whose release has arrived, collects their requests, invokes
// the allocator once, executes one quantum per active job, and feeds the
// measured statistics back into each job's policy — exactly one iteration of
// RunMulti's loop. When every unfinished job is released in the future the
// clock jumps to the earliest release boundary instead (FastForwarded); with
// no unfinished jobs at all it advances one idle quantum (Idle).
//
// A Step costs O(waiting + live jobs): admission walks the waiting index,
// the quantum walks the live index, and jobs finished earlier cost
// nothing. Both indexes hold ids in ascending order, the order in which
// the allocator sees requests (DEQ hands its remainder out by position)
// and in which events are emitted, so the schedule is the one a walk over
// every job id would give. A job a subscriber submits during a Step's
// emissions waits for the next boundary, as if it had been submitted after
// Step returned.
//
// The execute loop measures each granted job's quantum straight into the
// job's last-quantum record, and the reduce loop completes the record in
// place. So to a subscriber of the reduce loop's events, a job whose
// reduce has not yet run shows in JobStatus the Allotment and Parallelism
// of the quantum just executed, with Deprived false; its NumQuanta,
// DeprivedQ, Waste and Request catch up when its reduce runs.
func (e *Engine) Step() (StepInfo, error) {
	info := StepInfo{Boundary: e.k, Time: int64(e.k) * e.L64,
		QuantaElapsed: e.res.QuantaElapsed}
	if e.remaining == 0 {
		// Nothing submitted and unfinished: a live service idling between
		// arrivals. Time advances; the MaxQuanta budget (a bound on how long
		// a job set may take, not on service uptime) is not consumed.
		e.k++
		info.Idle = true
		return info, nil
	}
	if e.k > e.maxQ {
		return info, fmt.Errorf("sim: job set did not finish within %d quanta", e.maxQ)
	}
	cfg := &e.cfg
	now := info.Time
	nextRelease := e.admit(now, &info)
	if len(e.live) == 0 {
		if e.remaining == 0 || nextRelease < 0 {
			// Zero-work admissions emptied the system at this boundary, or
			// left only jobs a subscriber submitted during them, which wait
			// for the next boundary.
			e.k++
			info.QuantaElapsed = e.res.QuantaElapsed
			return info, nil
		}
		// Jump to the boundary at or after the next release.
		e.k = int((nextRelease + e.L64 - 1) / e.L64)
		info.FastForwarded = true
		return info, nil
	}
	e.res.QuantaElapsed++
	info.Executed = true
	info.Active = len(e.live)
	e.requests = e.requests[:0]
	for _, i := range e.live {
		s := e.states.at(i)
		r := RoundRequest(s.request)
		e.requests = append(e.requests, r)
		if cfg.Obs.Active() {
			cfg.Obs.Emit(obs.Event{Kind: obs.EvRequest, Time: now,
				Quantum: e.outcomes.at(i).NumQuanta + 1, Job: i, Name: e.specs.at(i).Name,
				Request: s.request, IntRequest: r})
		}
	}
	pEff := cfg.P
	if cfg.Capacity != nil {
		pEff = alloc.CapAt(cfg.Capacity, e.k+1, cfg.P)
		if pEff != e.capNow {
			e.capNow = pEff
			if cfg.Obs.Active() {
				cfg.Obs.Emit(obs.Event{Kind: obs.EvCapacity, Time: now,
					Quantum: e.res.QuantaElapsed, Job: -1,
					Name: cfg.Capacity.Name(), P: pEff})
			}
		}
	}
	allots := e.allot.Allot(e.requests, pEff)
	if cfg.Obs.Active() {
		totalReq, totalAllot := 0, 0
		for pos := range e.requests {
			totalReq += e.requests[pos]
			totalAllot += allots[pos]
		}
		cfg.Obs.Emit(obs.Event{Kind: obs.EvAllocDecision, Time: now,
			Quantum: e.res.QuantaElapsed, Job: -1, Name: cfg.Allocator.Name(),
			P: pEff, IntRequest: totalReq, Allotment: totalAllot})
	}
	// Execute phase: run every granted job's quantum, measured straight
	// into the job's last-quantum record. Every read or write of shared
	// engine state (events, traces, waste, restarts, completions, feedback)
	// happens in the reduce loop below, in job-index order. The phases stay
	// two loops so the first EvAllotment marks where execute ends.
	for pos, i := range e.live {
		if a := allots[pos]; a > 0 {
			sp := e.specs.at(i)
			sched.RunQuantumScratch(&e.states.at(i).last, sp.Inst, sp.Sched, a, cfg.L, &e.scratch)
		}
	}
	// Reduce phase, in job-index order. An emission may run a subscriber
	// that submits jobs: Submit only appends to the tables, which keep s, j
	// and sp valid, and never touches live.
	finished := false
	for pos, i := range e.live {
		s, j, sp := e.states.at(i), e.outcomes.at(i), e.specs.at(i)
		a := allots[pos]
		if cfg.Obs.Active() {
			cfg.Obs.Emit(obs.Event{Kind: obs.EvAllotment, Time: now,
				Quantum: j.NumQuanta + 1, Job: i, Name: sp.Name,
				IntRequest: e.requests[pos], Allotment: a, Deprived: a < e.requests[pos]})
		}
		if a <= 0 {
			// No processors this quantum (|J| > P); the job stalls and
			// its request stands.
			if cfg.TimelineRing > 0 {
				e.recordSample(s, QuantumSample{
					Quantum: j.NumQuanta + 1, Boundary: e.k, Time: now,
					Request: s.request, IntRequest: e.requests[pos],
					Deprived: true,
				})
			}
			continue
		}
		st := &s.last
		st.Index = j.NumQuanta + 1
		st.Start = now
		st.Request = s.request
		st.Deprived = a < e.requests[pos]
		j.NumQuanta++
		if st.Deprived {
			j.DeprivedQ++
		}
		if cfg.KeepTrace {
			j.Quanta = append(j.Quanta, *st)
		}
		if cfg.TimelineRing > 0 {
			e.recordSample(s, QuantumSample{
				Quantum: st.Index, Boundary: e.k, Time: now,
				Request: st.Request, IntRequest: e.requests[pos],
				Allotment: a, Steps: st.Steps, Work: st.Work,
				Parallelism: st.AvgParallelism(),
				Deprived:    st.Deprived, Completed: st.Completed,
			})
		}
		// The job holds its allotment until the boundary, so the whole
		// quantum's cycles are charged.
		waste := int64(a)*e.L64 - st.Work
		j.Waste += waste
		e.res.TotalWaste += waste
		s.attemptWork += st.Work
		if cfg.Obs.Active() {
			emitQuantum(cfg.Obs, st, i, sp.Name, &s.deprived)
		}
		if !st.Completed && sp.Restart.fires(st.Index, j.Restarts) {
			j.Restarts++
			j.LostWork += s.attemptWork
			if cfg.TimelineRing > 0 {
				s.timeline.markRestart()
			}
			if cfg.Obs.Active() {
				cfg.Obs.Emit(obs.Event{Kind: obs.EvJobRestarted,
					Time: now + int64(st.Steps), Quantum: st.Index,
					Job: i, Name: sp.Name, Work: s.attemptWork})
			}
			s.attemptWork = 0
			sp.Inst = sp.Restart.New()
			sp.Policy.Reset()
			s.request = sp.Policy.InitialRequest()
			continue
		}
		if st.Completed {
			e.completeJob(i, now+int64(st.Steps))
			info.Completed = append(info.Completed, i)
			finished = true
		} else {
			s.request = sp.Policy.NextRequest(st)
		}
	}
	if finished {
		e.live = slices.DeleteFunc(e.live, func(i int) bool { return e.states.at(i).done })
	}
	e.k++
	info.QuantaElapsed = e.res.QuantaElapsed
	return info, nil
}

// admit is Step's admission phase. It looks at every waiting job in
// ascending id order — the waiting list, then the ids from unseen on —
// starts those released by now, completes those with no work left, merges
// the rest into live, and returns the earliest release still in the future
// (-1 if none). The walk covers the jobs submitted before it began: one
// that a subscriber submits meanwhile gets an id from end on and waits for
// the next boundary.
func (e *Engine) admit(now int64, info *StepInfo) (nextRelease int64) {
	nextRelease = -1
	end, keep := e.states.len(), 0
	for _, i := range e.waiting {
		if release, waits := e.consider(i, now, info); waits {
			nextRelease = earliest(nextRelease, release)
			e.waiting[keep] = i
			keep++
		}
	}
	e.waiting = e.waiting[:keep]
	for i := e.unseen; i < end; i++ {
		if release, waits := e.consider(i, now, info); waits {
			nextRelease = earliest(nextRelease, release)
			e.waiting = append(e.waiting, i)
		}
	}
	e.unseen = end
	if len(e.admitted) > 0 {
		e.live = mergeAscending(e.live, e.admitted)
		e.admitted = e.admitted[:0]
	}
	return nextRelease
}

// consider is admission's look at waiting job i. A job released after now
// keeps waiting, and consider returns its release. Otherwise the job
// starts: it joins admitted, or, with no work left, completes at once.
func (e *Engine) consider(i int, now int64, info *StepInfo) (release int64, waits bool) {
	sp := e.specs.at(i)
	if sp.Release > now {
		return sp.Release, true
	}
	s := e.states.at(i)
	s.started = true
	e.running++
	s.request = sp.Policy.InitialRequest()
	e.admitted = append(e.admitted, i)
	if e.cfg.Obs.Active() {
		j := e.outcomes.at(i)
		e.cfg.Obs.Emit(obs.Event{Kind: obs.EvJobAdmitted, Time: now,
			Job: i, Name: sp.Name, Work: j.Work,
			Parallelism: avgParallelism(j.Work, j.CriticalPath)})
	}
	if sp.Inst.Done() {
		// A zero-work job (nothing left to execute) completes in its arrival
		// quantum: running it through the allocator would never raise
		// Completed and the job would hang the set.
		e.completeJob(i, now)
		info.Completed = append(info.Completed, i)
		e.admitted = e.admitted[:len(e.admitted)-1]
	}
	return 0, false
}

// earliest returns the earlier of two releases, where -1 means none.
func earliest(a, b int64) int64 {
	if a < 0 || b < a {
		return b
	}
	return a
}

// mergeAscending merges add into dst, both in ascending order, and returns
// the merged slice. It merges from the back, in place, so it moves only the
// ids of dst above add's smallest.
func mergeAscending(dst, add []int) []int {
	i := len(dst) - 1
	dst = append(dst, add...)
	for k, j := len(dst)-1, len(add)-1; j >= 0; k-- {
		if i >= 0 && dst[i] > add[j] {
			dst[k] = dst[i]
			i--
		} else {
			dst[k] = add[j]
			j--
		}
	}
	return dst
}

// completeJob marks job i done as of step t, releases what only its
// remaining quanta needed — its instance, policy and restart hook — and
// emits its completion event.
func (e *Engine) completeJob(i int, t int64) {
	e.states.at(i).finish()
	e.remaining--
	e.running--
	sp, j := e.specs.at(i), e.outcomes.at(i)
	sp.Inst, sp.Policy, sp.Restart = nil, nil, nil
	j.Completion = t
	j.Response = j.Completion - sp.Release
	e.respSum += j.Response
	if j.Completion > e.res.Makespan {
		e.res.Makespan = j.Completion
	}
	if e.cfg.TimelineRing > 0 {
		e.retireTimeline(i)
	}
	if e.cfg.Obs.Active() {
		e.cfg.Obs.Emit(obs.Event{Kind: obs.EvJobCompleted,
			Time: j.Completion, Job: i, Name: sp.Name,
			Work: j.Work, Response: j.Response})
	}
}

// Run steps the engine until every submitted job has completed and returns
// the result — RunMulti's tail. Jobs submitted while Run executes (from the
// same goroutine, e.g. via an obs subscriber) extend the run. A job that a
// subscriber submits during a Step becomes schedulable exactly as if it had
// been submitted right after that Step returned: admission does not see it,
// and since appending never moves a stored record, every write Step makes
// after the emission lands.
func (e *Engine) Run() (MultiResult, error) {
	for e.remaining > 0 {
		if _, err := e.Step(); err != nil {
			return e.Result(), err
		}
	}
	return e.Result(), nil
}

// Result returns a snapshot of the accumulated outcome. The Jobs slice is
// copied, so the snapshot stays stable while the engine keeps stepping.
func (e *Engine) Result() MultiResult {
	out := e.res
	out.Jobs = e.outcomes.appendTo(nil)
	return out
}

// JobStatus returns the live snapshot of one job; ok is false for an
// unknown id.
func (e *Engine) JobStatus(id int) (JobStatus, bool) {
	if id < 0 || id >= e.states.len() {
		return JobStatus{}, false
	}
	s, j := e.states.at(id), e.outcomes.at(id)
	st := JobStatus{
		ID:           id,
		Name:         j.Name,
		Release:      j.Release,
		Work:         j.Work,
		CriticalPath: j.CriticalPath,
		Request:      s.request,
		Allotment:    s.last.Allotment,
		Parallelism:  s.last.AvgParallelism(),
		Deprived:     s.last.Deprived,
		NumQuanta:    j.NumQuanta,
		DeprivedQ:    j.DeprivedQ,
		Restarts:     j.Restarts,
		LostWork:     j.LostWork,
		Waste:        j.Waste,
	}
	if s.started {
		st.IntRequest = RoundRequest(s.request)
	}
	switch {
	case s.done:
		st.State = JobDone
		st.Completion = j.Completion
		st.Response = j.Response
	case s.started:
		st.State = JobRunning
	default:
		st.State = JobPending
	}
	return st, true
}

// Statuses returns the live snapshot of every submitted job, in ascending
// id order (out[i].ID == i always). The returned slice is owned by the
// engine and reused by the next Statuses call, so a caller that serialises
// engine access (the documented contract) can poll it under load without
// per-call allocation; copy the elements before releasing the lock if they
// must outlive the next engine call.
func (e *Engine) Statuses() []JobStatus {
	n := e.states.len()
	if cap(e.statusBuf) < n {
		e.statusBuf = make([]JobStatus, n)
	}
	out := e.statusBuf[:n]
	for i := range out {
		out[i], _ = e.JobStatus(i)
	}
	return out
}
