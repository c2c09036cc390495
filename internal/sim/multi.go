package sim

import (
	"fmt"

	"abg/internal/alloc"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/obs"
	"abg/internal/sched"
)

// JobSpec describes one job of a multiprogrammed job set.
type JobSpec struct {
	// Name labels the job in results (optional).
	Name string
	// Release is the arrival time in steps. A job arriving mid-quantum
	// starts at the following quantum boundary (reallocation happens only at
	// boundaries).
	Release int64
	// Inst is the job to execute.
	Inst job.Instance
	// Policy computes its processor requests (one instance per job).
	Policy feedback.Policy
	// Sched is its task scheduler.
	Sched sched.Scheduler
	// Restart optionally injects failures for this job (see RestartPlan);
	// nil leaves the job failure-free.
	Restart *RestartPlan
}

// MultiConfig configures a multiprogrammed simulation.
type MultiConfig struct {
	// P is the machine size; L the quantum length. Both required.
	P, L int
	// Allocator space-shares the machine; required (e.g.
	// alloc.DynamicEquiPartition{}).
	Allocator alloc.Multi
	// MaxQuanta caps the simulation; DefaultMaxQuanta when zero.
	MaxQuanta int
	// KeepTrace records every job's per-quantum statistics in
	// JobOutcome.Quanta. Off by default — large sweeps would hold
	// thousands of traces alive — and opt-in, the same name and polarity
	// as SingleConfig and AdaptiveLConfig.
	KeepTrace bool
	// Obs receives the live instrumentation events of the run (see
	// abg/internal/obs); nil disables emission.
	Obs *obs.Bus
	// Capacity optionally varies the machine's effective processor count
	// over time: each allocation round k runs with
	// P(k) = min(P, max(Capacity.At(k), 0)) processors, emitting
	// obs.EvCapacity when the value changes. Nil reproduces the fixed
	// machine bit-for-bit.
	Capacity alloc.Capacity
	// TimelineRing, when positive, keeps a bounded per-job ring of the last
	// TimelineRing quantum samples (desire, allotment, measured parallelism,
	// verdict — see QuantumSample), readable via Engine.Timeline. Purely
	// observational: enabling it leaves results, the event stream, and
	// engine snapshots bit-identical, and unlike KeepTrace its memory is
	// bounded per job. Zero disables recording.
	TimelineRing int
}

// JobOutcome is the per-job result of a multiprogrammed run.
type JobOutcome struct {
	Name         string
	Release      int64
	Completion   int64 // step at which the job's last task finished
	Response     int64 // Completion − Release
	Work         int64
	CriticalPath int
	Waste        int64 // Σ_q a(q)·L − T1: the job holds its allotment to each boundary
	NumQuanta    int
	DeprivedQ    int // quanta on which the allotment fell short of the request
	// Restarts counts injected failures (JobSpec.Restart) and LostWork the
	// completed work they threw away; executed work = Work + LostWork.
	Restarts int
	LostWork int64
	// Quanta holds the job's per-quantum trace when MultiConfig.KeepTrace
	// is set (nil otherwise).
	Quanta []sched.QuantumStats
}

// MultiResult is the outcome of a multiprogrammed run.
type MultiResult struct {
	Jobs []JobOutcome
	// Makespan is the completion time of the last job (time origin 0).
	Makespan int64
	// TotalWaste sums the per-job wastes.
	TotalWaste int64
	// QuantaElapsed is the number of global quantum boundaries processed.
	QuantaElapsed int
}

// MeanResponse returns the mean response time of the job set.
func (r MultiResult) MeanResponse() float64 {
	if len(r.Jobs) == 0 {
		return 0
	}
	var sum int64
	for _, j := range r.Jobs {
		sum += j.Response
	}
	return float64(sum) / float64(len(r.Jobs))
}

// RunMulti simulates the job set space-sharing P processors under the given
// multi-job allocator, with synchronized quanta of length L. Allotments are
// decided at every boundary from the current requests of all active jobs.
// It is a thin wrapper over Engine: submit every spec, run to completion.
func RunMulti(specs []JobSpec, cfg MultiConfig) (MultiResult, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return MultiResult{}, err
	}
	if len(specs) == 0 {
		return MultiResult{}, fmt.Errorf("sim: empty job set")
	}
	for i := range specs {
		if _, err := e.Submit(specs[i]); err != nil {
			return MultiResult{}, err
		}
	}
	return e.Run()
}
