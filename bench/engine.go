package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"abg/internal/alloc"
	"abg/internal/core"
	"abg/internal/job"
	"abg/internal/obs"
	"abg/internal/sim"
	"abg/internal/workload"
)

// engine-10k: a bare sim.Engine holding 10k constant-width jobs (widths
// 1/2/4/8 cycled, 3 quanta each) on P = 2·jobs processors, L = 100, DEQ,
// serial stepping — the same input as the BENCH_<n>.json series at 10k
// jobs, so a rep must reproduce that series' schedule exactly.
// feedback → allot → execute → reduce is all there is; HTTP, journal and
// SSE are bypassed. No input depends on the seed. Fresh engines repeat the
// identical schedule until the measured time is spent. Throughput and
// latency come from the rep made of each Step's fastest time over the
// reps, recovery is the fastest rep's, and set-up and heap take their
// median; every timing is then divided by the host's slowdown (host.go).
//
// The series' 100k size is not used: its ~330 MiB of job state competes
// with other tenants for the host's shared last-level cache and memory
// bandwidth, which swung its stepping time up to 1.8× within two minutes
// while fixed calibration loops moved by at most 1.3× (bench/README.md,
// "Workloads measured and left out").
const (
	engineName = "engine-10k"
	engineJobs = 10_000
	engineL    = 100
	engineR    = 0.2
)

// engineFingerprint is the schedule one rep produced.
type engineFingerprint struct {
	makespan   int64
	jobQuanta  int
	totalWaste int64
}

// checkEngineFingerprints compares every rep's schedule with the BENCH
// series (makespan 650 steps and 4.75 job-quanta per job at every size) and
// with the first rep (total waste, which the series does not record).
func checkEngineFingerprints(jobs int, fps []engineFingerprint) error {
	if len(fps) == 0 {
		return fmt.Errorf("no rep finished")
	}
	for i, fp := range fps {
		switch {
		case fp.makespan != 650:
			return fmt.Errorf("rep %d: makespan %d steps, want 650", i, fp.makespan)
		case 4*fp.jobQuanta != 19*jobs:
			return fmt.Errorf("rep %d: %d job-quanta, want %d", i, fp.jobQuanta, 19*jobs/4)
		case fp.totalWaste != fps[0].totalWaste:
			return fmt.Errorf("rep %d: total waste %d, rep 0 had %d", i, fp.totalWaste, fps[0].totalWaste)
		}
	}
	return nil
}

// phaseProbe timestamps the documented emission boundaries inside
// Engine.Step: the first EvRequest ends admission, EvAllocDecision ends
// allotment, and the first EvAllotment ends the execute phase (the reduce
// loop emits it). Step's own call and return bracket the rest.
type phaseProbe struct {
	stage int
	marks [3]time.Time
}

func (p *phaseProbe) OnEvent(e obs.Event) {
	if (p.stage == 0 && e.Kind == obs.EvRequest) ||
		(p.stage == 1 && e.Kind == obs.EvAllocDecision) ||
		(p.stage == 2 && e.Kind == obs.EvAllotment) {
		p.marks[p.stage] = time.Now()
		p.stage++
	}
}

var phaseNames = [4]string{"admit", "allot", "execute", "reduce"}

// ackBatch is how many Submit calls one ack sample averages: a single call
// takes about as long as reading the clock twice.
const ackBatch = 1000

// engineAcc accumulates one mode's reps.
type engineAcc struct {
	reps                         int
	setup, recover, heap         samples // per rep
	stepFast                     fastest // per Step of a rep, seconds
	doneAt                       []int   // jobs completed by each Step of a rep
	encodeMs, snapBytes          samples // per rep
	ack                          samples // per ackBatch Submit calls, ms per call
	stepMs                       samples // per Step call
	jobs                         int
	steps                        int
	stepMallocs                  uint64
	phase                        [4]time.Duration
	phaseJobQ                    int
	mallocs, gcCycles, gcPauseNs uint64
	fps                          []engineFingerprint
	restoreErr                   error
}

// jobsPerS is one rep's jobs over the sum of each Step's fastest time.
func (a *engineAcc) jobsPerS() float64 { return float64(a.jobs/a.reps) / a.stepFast.sum() }

// latency returns every job's completion latency, in ms, in the rep made of
// each Step's fastest time: a job the k-th Step completed waited for Steps
// 0 to k. Every rep completes the same jobs at the same Steps.
func (a *engineAcc) latency() samples {
	lat := make(samples, 0, a.jobs/max(1, a.reps))
	elapsed := 0.0
	for k, d := range a.stepFast {
		elapsed += d
		for range a.doneAt[k] {
			lat.add(elapsed * 1e3)
		}
	}
	return lat
}

func runEngine(ctx context.Context, e *env) (*result, error) {
	jobs := engineJobs
	if e.quick {
		jobs = 2_000
	}
	var profiles [4]*job.Profile
	for i, w := range [4]int{1, 2, 4, 8} {
		profiles[i] = workload.ConstantJob(w, 3, engineL)
	}
	plainTime := e.seconds
	if e.trace {
		plainTime = e.seconds / 3
	}
	var plain, traced engineAcc
	host := newHostProbe()
	if err := engineReps(ctx, jobs, profiles, plainTime, host, nil, nil, &plain); err != nil {
		return nil, err
	}
	if e.trace {
		probe := &phaseProbe{}
		if err := engineReps(ctx, jobs, profiles, e.seconds-plainTime, host, probe, e.spans, &traced); err != nil {
			return nil, err
		}
	}

	res := newResult()
	res.attempted = plain.jobs + traced.jobs
	fps := append(append([]engineFingerprint(nil), plain.fps...), traced.fps...)
	res.verify("schedule matches the BENCH series", checkEngineFingerprints(jobs, fps))
	res.verify("restored snapshot equals the run", firstErr(plain.restoreErr, traced.restoreErr))

	lat := plain.latency()
	slow := host.slowdown()
	res.set("setup_s", plain.setup.median()/slow, plain.reps)
	res.set("jobs_per_s", plain.jobsPerS()*slow, plain.reps)
	res.set("latency_p50_ms", lat.median()/slow, len(lat))
	res.set("latency_p99_ms", lat.quantile(0.99)/slow, len(lat))
	res.set("recover_s", plain.recover.quantile(0)/slow, plain.reps) // the fastest rep's
	res.set("heap_live_mb", plain.heap.median(), plain.reps)
	res.set("host.slowdown", slow, len(host.fast))

	res.set("client.ack_p50_ms", plain.ack.median(), len(plain.ack)*ackBatch)
	res.set("sim.step_ms_p50", plain.stepMs.median(), len(plain.stepMs))
	res.set("sim.allocs_per_quantum", float64(plain.stepMallocs)/float64(plain.steps), plain.steps)
	res.set("go.allocs_per_job", float64(plain.mallocs)/float64(plain.jobs), plain.reps)
	res.set("go.gc_cycles", float64(plain.gcCycles)/float64(plain.reps), plain.reps)
	res.set("go.gc_pause_ms", float64(plain.gcPauseNs)/1e6/float64(plain.reps), plain.reps)
	if e.trace {
		for i, name := range phaseNames {
			res.set("sim."+name+"_ns_per_jobq",
				float64(traced.phase[i].Nanoseconds())/float64(traced.phaseJobQ), traced.phaseJobQ)
		}
		res.set("sim.snapshot_encode_ms", traced.encodeMs.median(), traced.reps)
		res.set("sim.snapshot_bytes", traced.snapBytes.median(), traced.reps)
		res.set("trace.overhead_pct", overheadPct(plain.jobsPerS(), traced.jobsPerS()), traced.reps)
	}
	return res, nil
}

// engineReps runs fresh engines until budget is spent (at least one).
func engineReps(ctx context.Context, jobs int, profiles [4]*job.Profile, budget time.Duration,
	host *hostProbe, probe *phaseProbe, spans *spanLog, acc *engineAcc) error {
	start := time.Now()
	for acc.reps == 0 || time.Since(start) < budget {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := engineRep(jobs, profiles, host, probe, spans, acc); err != nil {
			return err
		}
	}
	return nil
}

func engineRep(jobs int, profiles [4]*job.Profile, host *hostProbe, probe *phaseProbe, spans *spanLog, acc *engineAcc) error {
	scheduler := core.NewABG(engineR)
	newSpec := func(i int) sim.JobSpec {
		return sim.JobSpec{
			Name: "bench" + strconv.Itoa(i), Inst: job.NewRun(profiles[i%4]),
			Policy: scheduler.NewPolicy(), Sched: scheduler.TaskScheduler(),
		}
	}
	cfg := sim.MultiConfig{
		P: 2 * jobs, L: engineL, Allocator: alloc.DynamicEquiPartition{},
		MaxQuanta: 1 << 30,
	}
	if probe != nil {
		cfg.Obs = obs.NewBus()
		cfg.Obs.Subscribe(probe)
	}
	baseHeap, before := heapAfterGC()
	host.sample()

	t0 := time.Now()
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		return err
	}
	batch := make([]sim.JobSpec, 0, ackBatch)
	for first := 0; first < jobs; first += ackBatch {
		batch = batch[:0]
		for i := first; i < min(first+ackBatch, jobs); i++ {
			batch = append(batch, newSpec(i))
		}
		s := time.Now()
		for _, spec := range batch {
			if _, err := eng.Submit(spec); err != nil {
				return err
			}
		}
		acc.ack.add(float64(time.Since(s).Nanoseconds()) / 1e6 / float64(len(batch)))
	}
	acc.setup.add(time.Since(t0).Seconds())

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var stepSec []float64
	var doneAt []int
	for !eng.Done() {
		if probe != nil {
			probe.stage = 0
		}
		s := time.Now()
		info, err := eng.Step()
		end := time.Now()
		if err != nil {
			return err
		}
		stepSec = append(stepSec, end.Sub(s).Seconds())
		doneAt = append(doneAt, len(info.Completed))
		acc.stepMs.addDur(end.Sub(s))
		spans.add(engineName+" step", "Step", s, end,
			map[string]any{"boundary": info.Boundary, "active": info.Active})
		if probe != nil && probe.stage == 3 {
			bounds := [5]time.Time{s, probe.marks[0], probe.marks[1], probe.marks[2], end}
			for i := range phaseNames {
				acc.phase[i] += bounds[i+1].Sub(bounds[i])
				spans.add(engineName+" step", phaseNames[i], bounds[i], bounds[i+1], nil)
			}
			acc.phaseJobQ += info.Active
		}
	}
	runtime.ReadMemStats(&m1)
	acc.steps += len(stepSec)
	acc.stepMallocs += m1.Mallocs - m0.Mallocs
	acc.stepFast.add(stepSec)
	if acc.doneAt == nil {
		acc.doneAt = doneAt
	}

	r := eng.Result()
	fp := engineFingerprint{makespan: r.Makespan, totalWaste: r.TotalWaste}
	for _, j := range r.Jobs {
		fp.jobQuanta += j.NumQuanta
	}
	acc.fps = append(acc.fps, fp)
	acc.jobs += jobs
	acc.reps++
	// Set-up and stepping, without the collections the benchmark forces.
	acc.mallocs += m1.Mallocs - before.Mallocs
	acc.gcCycles += uint64(m1.NumGC - before.NumGC)
	acc.gcPauseNs += m1.PauseTotalNs - before.PauseTotalNs
	acc.heap.add(heapSince(baseHeap))

	// Recovery: a snapshot of the finished engine restored onto freshly
	// rebuilt specs, as a daemon restarts from its journal.
	s := time.Now()
	blob, err := eng.MarshalBinary()
	if err != nil {
		return err
	}
	acc.encodeMs.addDur(time.Since(s))
	acc.snapBytes.add(float64(len(blob)))
	s = time.Now()
	specs := make([]sim.JobSpec, jobs)
	for i := range specs {
		specs[i] = newSpec(i)
	}
	cfg.Obs = nil
	restored, err := sim.RestoreEngine(cfg, blob, specs)
	acc.recover.add(time.Since(s).Seconds())
	if err == nil && !reflect.DeepEqual(restored.Result(), r) {
		err = fmt.Errorf("restored engine's result differs from the original")
	}
	if err != nil && acc.restoreErr == nil {
		acc.restoreErr = err
	}
	return nil
}

// heapAfterGC forces a collection and returns the live heap in bytes with
// the memory statistics read right after it.
func heapAfterGC() (uint64, runtime.MemStats) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc, m
}

// overheadPct is how much slower the traced throughput is, in percent.
func overheadPct(plain, traced float64) float64 { return (plain/traced - 1) * 100 }

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
