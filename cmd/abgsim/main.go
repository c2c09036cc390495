// Command abgsim simulates malleable jobs under an adaptive two-level
// scheduler and prints per-quantum traces and summary metrics. With -jobs N
// it space-shares N jobs under dynamic equi-partitioning; the run can be
// watched live (-debug-addr serves expvar + pprof, -events logs every
// instrumentation event) and exported as a Perfetto timeline (-perfetto).
//
// Examples:
//
//	abgsim -scheduler abg -cl 20                 # random fork-join job, ABG
//	abgsim -scheduler agreedy -cl 20             # same under A-Greedy
//	abgsim -constant 12 -quanta 8                # Figure 4's constant job
//	abgsim -cl 50 -avail 16                      # capped availability
//	abgsim -jobs 4 -release 2000 -perfetto t.json  # job set → ui.perfetto.dev
//	abgsim -cl 80 -debug-addr :6060 -repeat 100  # live metrics + profiling
//
// Fault injection (-fault, see abg/internal/fault.ParseSpec for the full
// grammar) perturbs the run deterministically; a runtime invariant checker
// audits every faulted run and the process exits non-zero on violations:
//
//	abgsim -cl 20 -fault drop=0.3,delay=2:0.2,seed=7   # lossy control channel
//	abgsim -cl 20 -fault cap=step:0.5@30               # lose half the machine
//	abgsim -jobs 4 -fault cap=churn:0.5:16,restart=0.01,maxrestarts=2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"abg/internal/alloc"
	"abg/internal/cli"
	"abg/internal/core"
	"abg/internal/fault"
	"abg/internal/job"
	"abg/internal/obs"
	"abg/internal/sim"
	"abg/internal/table"
	"abg/internal/workload"
	"abg/internal/xrand"
)

func main() {
	var (
		schedName = flag.String("scheduler", "abg", "scheduler: abg | agreedy")
		r         = flag.Float64("r", 0.2, "ABG convergence rate in [0,1)")
		rho       = flag.Float64("rho", 2, "A-Greedy multiplicative factor (>1)")
		delta     = flag.Float64("delta", 0.8, "A-Greedy utilization threshold in (0,1)")
		p         = flag.Int("P", 128, "machine size (processors)")
		l         = flag.Int("L", 1000, "quantum length (steps)")
		cl        = flag.Int("cl", 20, "transition factor (parallel-phase width) of the random fork-join job")
		constant  = flag.Int("constant", 0, "if >0, run a constant-parallelism job of this width instead")
		quanta    = flag.Int("quanta", 10, "approximate length of the constant job in quanta")
		seed      = flag.Uint64("seed", 2008, "workload seed")
		avail     = flag.Int("avail", 0, "if >0, cap per-quantum availability at this many processors (single-job only)")
		showTrace = flag.Bool("trace", true, "print the per-quantum trace")
		jobsN     = flag.Int("jobs", 1, "number of jobs; >1 space-shares them under dynamic equi-partitioning")
		release   = flag.Int64("release", 0, "release spacing in steps between successive jobs (with -jobs)")
		logSpec   = flag.String("log", "", `log levels: "info" or "info,sim=debug,events=debug" (default warn)`)
		debugAddr = flag.String("debug-addr", "", "serve expvar + pprof on this address (e.g. :6060) during the run")
		perfetto  = flag.String("perfetto", "", "write a Perfetto/Chrome trace-event JSON timeline to this file")
		events    = flag.Bool("events", false, "log instrumentation events (per-quantum detail needs -log events=debug)")
		metricsOn = flag.Bool("metrics", false, "print the metrics snapshot to stderr after the run")
		repeat    = flag.Int("repeat", 1, "run the simulation this many times (profiling aid with -debug-addr)")
		faultSpec = flag.String("fault", "", `fault-injection spec, e.g. "drop=0.3,cap=step:0.5@30,seed=7" (see internal/fault)`)
		version   = cli.VersionFlag()
	)
	flag.Parse()
	cli.ExitIfVersion("abgsim", *version)

	if err := obs.SetupDefaultLogger(*logSpec); err != nil {
		fmt.Fprintf(os.Stderr, "abgsim: %v\n", err)
		os.Exit(2)
	}
	ctx, stop := cli.SignalContext()
	defer stop()

	machine := core.Machine{P: *p, L: *l}
	var scheduler core.Scheduler
	switch *schedName {
	case "abg":
		scheduler = core.NewABG(*r)
	case "agreedy":
		scheduler = core.NewAGreedy(*rho, *delta)
	default:
		fmt.Fprintf(os.Stderr, "abgsim: unknown scheduler %q (want abg or agreedy)\n", *schedName)
		os.Exit(2)
	}

	plan, err := fault.ParseSpec(*faultSpec, *p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abgsim: %v\n", err)
		os.Exit(2)
	}

	// The bus stays subscriber-free (and therefore free) unless some form of
	// observability was asked for.
	bus := obs.NewBus()
	var checker *fault.Checker
	if *faultSpec != "" {
		// Every faulted run is audited: the checker validates allotments
		// against P(t), request sanity, and work conservation across
		// restarts as the events stream past.
		checker = fault.NewChecker(*p, false)
		bus.Subscribe(checker)
	}
	if *debugAddr != "" || *metricsOn {
		bus.Subscribe(obs.NewMetricsSubscriber(obs.Default))
	}
	if *events {
		bus.Subscribe(obs.NewLogSubscriber(nil))
	}
	if *debugAddr != "" {
		srv, err := obs.StartDebugServer(*debugAddr, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "abgsim: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "[debug server on http://%s]\n", srv.Addr())
	}
	if *repeat < 1 {
		*repeat = 1
	}

	profileAt := func(i int) *job.Profile {
		if *constant > 0 {
			return workload.ConstantJob(*constant, *quanta, *l)
		}
		return workload.GenJob(xrand.New(*seed+uint64(i)), workload.DefaultJobParams(*cl, *l))
	}

	if *jobsN > 1 {
		runJobSet(ctx, machine, scheduler, bus, plan, profileAt, *jobsN, *release, *perfetto, *showTrace, *repeat)
	} else {
		runSingleJob(ctx, machine, scheduler, bus, plan, profileAt(0), *avail, *perfetto, *showTrace, *repeat)
	}

	if *metricsOn {
		fmt.Fprintln(os.Stderr)
		if err := obs.Default.WriteSnapshot(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "abgsim: %v\n", err)
		}
	}
	if checker != nil {
		if err := checker.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "abgsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[fault plan %s: invariants held]\n", plan)
	}
}

// runSingleJob runs one job alone on the machine repeat times and reports
// the final run. An interrupt (ctx) stops between repeats, after at least
// one complete run.
func runSingleJob(ctx context.Context, machine core.Machine, scheduler core.Scheduler, bus *obs.Bus,
	plan fault.Plan, profile *job.Profile, avail int, perfetto string, showTrace bool, repeat int) {

	run := func() (sim.SingleResult, error) {
		allocator := alloc.Single(alloc.NewUnconstrained(machine.P))
		if avail > 0 {
			cap := avail
			allocator = alloc.NewAvailabilityTrace(machine.P, func(int) int { return cap }, "capped")
		}
		cfg := sim.SingleConfig{L: machine.L, KeepTrace: true, Obs: bus,
			Capacity: plan.Capacity}
		if hook := plan.RestartHook(0); hook != nil {
			cfg.Restart = &sim.RestartPlan{
				At:  hook,
				New: func() job.Instance { return job.NewRun(profile) },
				Max: plan.MaxRestarts,
			}
		}
		// ObserveSingle adds allocator-level EvAllocDecision events (the
		// engine itself only emits the per-job view).
		return sim.RunSingle(job.NewRun(profile), plan.Policy(scheduler.NewPolicy(), 0, bus),
			scheduler.TaskScheduler(), alloc.ObserveSingle(allocator, bus), cfg)
	}

	var (
		res sim.SingleResult
		err error
	)
	for i := 0; i < repeat; i++ {
		res, err = run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "abgsim: %v\n", err)
			os.Exit(1)
		}
		if i+1 < repeat && cli.Interrupted(ctx, os.Stderr, "abgsim") {
			break
		}
	}

	fmt.Printf("scheduler: %s   machine: P=%d L=%d\n", scheduler.Name(), machine.P, machine.L)
	fmt.Printf("job: T1=%d T∞=%d A=%.2f\n\n", res.Work, res.CriticalPath,
		float64(res.Work)/float64(res.CriticalPath))

	if showTrace {
		tb := table.New("q", "request", "allot", "T1(q)", "T∞(q)", "A(q)", "waste", "full")
		for _, q := range res.Quanta {
			tb.AddRowf(q.Index, q.Request, q.Allotment, q.Work, q.CPL, q.AvgParallelism(),
				q.Waste(), q.Full())
		}
		tb.Render(os.Stdout)
		fmt.Println()
	}

	rep, err := core.Analyze(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abgsim: %v\n", err)
		os.Exit(1)
	}
	tb := table.New("metric", "value")
	tb.AddRowf("runtime (steps)", res.Runtime)
	tb.AddRowf("runtime / T∞", rep.NormalizedRuntime)
	tb.AddRowf("waste / T1", rep.NormalizedWaste)
	tb.AddRowf("speedup", rep.Speedup)
	tb.AddRowf("utilization", rep.Utilization)
	tb.AddRowf("transition factor C_L", rep.TransitionFactor)
	tb.AddRowf("request overshoot", rep.Requests.MaxOvershoot)
	tb.AddRowf("request oscillations", rep.Oscillations)
	if res.Restarts > 0 {
		tb.AddRowf("injected restarts", res.Restarts)
		tb.AddRowf("lost work (cycles)", res.LostWork)
	}
	tb.Render(os.Stdout)

	if perfetto != "" {
		var tl obs.Timeline
		tl.AddJob("job 0", res.Quanta)
		writePerfetto(perfetto, tl)
	}
}

// runJobSet space-shares n jobs released spacing steps apart and reports the
// final run of the set. An interrupt (ctx) stops between repeats, after at
// least one complete run.
func runJobSet(ctx context.Context, machine core.Machine, scheduler core.Scheduler, bus *obs.Bus,
	plan fault.Plan, profileAt func(int) *job.Profile, n int, spacing int64,
	perfetto string, showTrace bool, repeat int) {

	// Job specs are built directly (rather than via core.RunJobSetWith) so
	// each job's policy can be wrapped in the plan's lossy channel and given
	// its own seeded restart schedule.
	build := func() []sim.JobSpec {
		specs := make([]sim.JobSpec, n)
		for i := range specs {
			profile := profileAt(i)
			specs[i] = sim.JobSpec{
				Name:    fmt.Sprintf("job%d", i),
				Release: int64(i) * spacing,
				Inst:    job.NewRun(profile),
				Policy:  plan.Policy(scheduler.NewPolicy(), i, bus),
				Sched:   scheduler.TaskScheduler(),
			}
			if hook := plan.RestartHook(i); hook != nil {
				specs[i].Restart = &sim.RestartPlan{
					At:  hook,
					New: func() job.Instance { return job.NewRun(profile) },
					Max: plan.MaxRestarts,
				}
			}
		}
		return specs
	}

	var (
		res sim.MultiResult
		err error
	)
	for i := 0; i < repeat; i++ {
		res, err = sim.RunMulti(build(), sim.MultiConfig{
			P: machine.P, L: machine.L, Allocator: alloc.DynamicEquiPartition{},
			KeepTrace: true, Obs: bus, Capacity: plan.Capacity,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "abgsim: %v\n", err)
			os.Exit(1)
		}
		if i+1 < repeat && cli.Interrupted(ctx, os.Stderr, "abgsim") {
			break
		}
	}

	fmt.Printf("scheduler: %s   machine: P=%d L=%d   jobs: %d (release spacing %d)\n\n",
		scheduler.Name(), machine.P, machine.L, n, spacing)

	if showTrace {
		tb := table.New("job", "release", "completion", "response", "quanta", "T1", "waste", "restarts")
		for _, j := range res.Jobs {
			tb.AddRowf(j.Name, j.Release, j.Completion, j.Response, j.NumQuanta, j.Work, j.Waste, j.Restarts)
		}
		tb.Render(os.Stdout)
		fmt.Println()
	}

	restarts := 0
	for _, j := range res.Jobs {
		restarts += j.Restarts
	}
	tb := table.New("metric", "value")
	tb.AddRowf("makespan (steps)", res.Makespan)
	tb.AddRowf("mean response (steps)", res.MeanResponse())
	tb.AddRowf("total waste", res.TotalWaste)
	tb.AddRowf("quanta elapsed", res.QuantaElapsed)
	if restarts > 0 {
		tb.AddRowf("injected restarts", restarts)
	}
	tb.Render(os.Stdout)

	if perfetto != "" {
		var tl obs.Timeline
		for _, j := range res.Jobs {
			tl.AddJob(j.Name, j.Quanta)
		}
		writePerfetto(perfetto, tl)
	}
}

// writePerfetto exports the timeline as Chrome trace-event JSON, loadable in
// ui.perfetto.dev or chrome://tracing.
func writePerfetto(path string, tl obs.Timeline) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abgsim: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := tl.WriteTraceEvents(f); err != nil {
		fmt.Fprintf(os.Stderr, "abgsim: perfetto export: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "[perfetto timeline written to %s]\n", path)
}
