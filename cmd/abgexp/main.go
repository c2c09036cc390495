// Command abgexp regenerates one experiment of the paper's evaluation, or
// of this repository's ablations and extensions, as text tables (and
// optionally its main series as CSV or an ASCII chart). `abgexp -h` lists
// the experiments:
//
//	abgexp -exp fig1              # A-Greedy request instability
//	abgexp -exp fig5 -scale full  # runtime & waste vs transition factor
//	abgexp -exp fig6 -csv f6.csv  # makespan & response time vs load
//
// -scale small|medium|full trades fidelity for time (full is the paper's
// exact setup: P=128, L=1000, 50 jobs per C_L in 2..100, 5000 job sets).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"abg/internal/chart"
	"abg/internal/cli"
	"abg/internal/experiments"
	"abg/internal/obs"
	"abg/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its outputs injected, so usage errors and output bytes
// are testable. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abgexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "fig5", "experiment: "+strings.Join(experiments.Names(), "|"))
		scale     = fs.String("scale", "medium", "scale: small|medium|full")
		seed      = fs.Uint64("seed", 2008, "experiment seed")
		csvPath   = fs.String("csv", "", "optional path to write the main series as CSV")
		showChart = fs.Bool("chart", false, "render the main series as an ASCII chart")
		logSpec   = fs.String("log", "", `log levels, e.g. "info" or "info,experiments=debug" (default warn)`)
		debugAddr = fs.String("debug-addr", "", "serve expvar + pprof on this address (e.g. :6060) during the run")
		metricsOn = fs.Bool("metrics", false, "print the metrics snapshot to stderr after the run")
		version   = cli.VersionFlagSet(fs)
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, cli.VersionLine("abgexp"))
		return 0
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "abgexp: %v\n", err)
		return code
	}
	e, ok := experiments.Lookup(*exp)
	if !ok {
		return fail(2, fmt.Errorf("unknown experiment %q", *exp))
	}
	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		return fail(2, err)
	}
	if err := obs.SetupDefaultLogger(*logSpec); err != nil {
		return fail(2, err)
	}
	ctx, stop := cli.SignalContext()
	defer stop()
	if *debugAddr != "" {
		srv, err := obs.StartDebugServer(*debugAddr, nil)
		if err != nil {
			return fail(1, err)
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "[debug server on http://%s]\n", srv.Addr())
	}

	cfg := experiments.Defaults()
	cfg.Seed = *seed
	start := time.Now()
	// The table is rendered whole before any of it is printed, so a signal
	// mid-run exits at once with nothing on stdout.
	var res experiments.Result
	var table bytes.Buffer
	err = cli.Interruptible(ctx, func() error {
		r, err := e.Run(cfg, sc)
		if err == nil {
			res, err = r, r.Render(&table)
		}
		return err
	})
	if cli.Interrupted(ctx, stderr, "abgexp") {
		return 1
	}
	if err != nil {
		return fail(1, err)
	}
	if _, err := stdout.Write(table.Bytes()); err != nil {
		return fail(1, err)
	}
	fmt.Fprintf(stderr, "\n[%s %s in %v]\n", *exp, *scale, time.Since(start).Round(time.Millisecond))

	series := experiments.SeriesOf(res)
	if *showChart && len(series) > 0 {
		fmt.Fprintln(stdout)
		if err := chart.Render(stdout, series, chart.Options{
			Title: *exp, Width: 72, Height: 18,
		}); err != nil {
			return fail(1, err)
		}
	}
	if *csvPath != "" && len(series) > 0 {
		if err := writeCSV(*csvPath, series); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stderr, "[series written to %s]\n", *csvPath)
	}
	if *metricsOn {
		fmt.Fprintln(stderr)
		if err := obs.Default.WriteSnapshot(stderr); err != nil {
			return fail(1, err)
		}
	}
	if cli.Interrupted(ctx, stderr, "abgexp") {
		return 1
	}
	return 0
}

func writeCSV(path string, series []trace.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteSeriesCSV(f, series); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
