// Command abgreport runs the experiment suite and writes a self-contained
// Markdown reproduction report to stdout:
//
//	abgreport -scale small  > report.md     # seconds, shapes only
//	abgreport -scale medium > report.md     # a minute or two
//	abgreport -scale full   > report.md     # the paper's exact setup
//	abgreport -sections fig4,fig5,validate  # a subset
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"abg/internal/cli"
	"abg/internal/experiments"
	"abg/internal/obs"
	"abg/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its outputs injected, so exit codes and output bytes
// are testable. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abgreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale    = fs.String("scale", "small", "experiment scale: small|medium|full")
		seed     = fs.Uint64("seed", 2008, "experiment seed")
		sections = fs.String("sections", "", "comma-separated subset (default: all): "+
			strings.Join(report.KnownSections(), ","))
		logSpec = fs.String("log", "", `log levels, e.g. "info" or "info,experiments=debug" (default warn)`)
		version = cli.VersionFlagSet(fs)
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, cli.VersionLine("abgreport"))
		return 0
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "abgreport: %v\n", err)
		return code
	}
	if err := obs.SetupDefaultLogger(*logSpec); err != nil {
		return fail(2, err)
	}
	ctx, stop := cli.SignalContext()
	defer stop()

	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		return fail(2, err)
	}
	opts := report.Options{Seed: *seed, Scale: sc, Now: time.Now()}
	if *sections != "" {
		opts.Sections = strings.Split(*sections, ",")
	}
	// The report is generated whole before any of it is printed, so a
	// signal mid-run exits at once with nothing on stdout.
	var doc bytes.Buffer
	err = cli.Interruptible(ctx, func() error { return report.Generate(&doc, opts) })
	if cli.Interrupted(ctx, stderr, "abgreport") {
		return 1
	}
	if err != nil {
		return fail(1, err)
	}
	if _, err := stdout.Write(doc.Bytes()); err != nil {
		return fail(1, err)
	}
	return 0
}
