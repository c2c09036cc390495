// Command abgreport runs the experiment suite and writes a self-contained
// Markdown reproduction report to stdout:
//
//	abgreport -scale small  > report.md     # seconds, shapes only
//	abgreport -scale medium > report.md     # a minute or two
//	abgreport -scale full   > report.md     # the paper's exact setup
//	abgreport -sections fig4,fig5,validate  # a subset
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"abg/internal/cli"
	"abg/internal/experiments"
	"abg/internal/obs"
	"abg/internal/report"
)

func main() {
	var (
		scale    = flag.String("scale", "small", "experiment scale: small|medium|full")
		seed     = flag.Uint64("seed", 2008, "experiment seed")
		sections = flag.String("sections", "", "comma-separated subset (default: all): "+
			strings.Join(report.KnownSections(), ","))
		logSpec = flag.String("log", "", `log levels, e.g. "info" or "info,experiments=debug" (default warn)`)
		version = cli.VersionFlag()
	)
	flag.Parse()
	cli.ExitIfVersion("abgreport", *version)
	if err := obs.SetupDefaultLogger(*logSpec); err != nil {
		fmt.Fprintf(os.Stderr, "abgreport: %v\n", err)
		os.Exit(2)
	}
	ctx, stop := cli.SignalContext()
	defer stop()

	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abgreport: %v\n", err)
		os.Exit(2)
	}
	opts := report.Options{Seed: *seed, Scale: sc, Now: time.Now()}
	if *sections != "" {
		opts.Sections = strings.Split(*sections, ",")
	}
	if err := report.Generate(os.Stdout, opts); err != nil {
		fmt.Fprintf(os.Stderr, "abgreport: %v\n", err)
		os.Exit(1)
	}
	if cli.Interrupted(ctx, os.Stderr, "abgreport") {
		os.Exit(1)
	}
}
