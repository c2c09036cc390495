// Package report generates a self-contained Markdown reproduction report:
// it runs the experiment catalogue at a chosen scale and renders each
// entry's output, exactly as abgexp prints it, with the paper's claim
// alongside — the automated counterpart of this repository's hand-written
// EXPERIMENTS.md.
package report

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"abg/internal/experiments"
	"abg/internal/validate"
)

// Options configures Generate.
type Options struct {
	// Seed drives every experiment, as given: 0 runs seed 0. The paper
	// setup's seed is experiments.Defaults().Seed.
	Seed  uint64
	Scale experiments.Scale // default experiments.Small
	// Sections lists the experiments to include; nil means all.
	// KnownSections lists the names.
	Sections []string
	// Now stamps the report header; the zero value omits the timestamp.
	Now time.Time
}

// Generate runs the selected experiments and writes the Markdown report.
func Generate(w io.Writer, opts Options) error {
	if opts.Scale == "" {
		opts.Scale = experiments.Small
	}
	if _, err := experiments.ParseScale(string(opts.Scale)); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	cfg := experiments.Defaults()
	cfg.Seed = opts.Seed
	include := func(name string) bool { return len(opts.Sections) == 0 || slices.Contains(opts.Sections, name) }

	fmt.Fprintf(w, "# ABG reproduction report\n\n")
	fmt.Fprintf(w, "Scale: %s · seed %d · machine P=%d, L=%d · r=%g, ρ=%g, δ=%g\n\n",
		opts.Scale, cfg.Seed, cfg.P, cfg.L, cfg.R, cfg.Rho, cfg.Delta)
	if !opts.Now.IsZero() {
		fmt.Fprintf(w, "Generated: %s\n\n", opts.Now.Format(time.RFC3339))
	}

	ran := 0
	for _, sec := range sections {
		if !include(sec.Name) {
			continue
		}
		fmt.Fprintf(w, "## %s\n\n", sec.Title)
		if sec.Claim != "" {
			fmt.Fprintf(w, "Paper: %s\n\n", sec.Claim)
		}
		fmt.Fprintf(w, "```\n")
		res, err := sec.Run(cfg, opts.Scale)
		if err == nil {
			err = res.Render(w)
		}
		if err != nil {
			return fmt.Errorf("report: section %s: %w", sec.Name, err)
		}
		fmt.Fprintf(w, "```\n\n")
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("report: no known sections among %v", opts.Sections)
	}
	return nil
}

// KnownSections lists the section names Generate accepts.
func KnownSections() []string {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.Name
	}
	return names
}

// sections defines the report in order: the experiment catalogue, then the
// theorem checks, which only the report runs.
var sections = append(slices.Clip(experiments.Catalogue), experiments.Experiment{
	Name: "validate", Title: "Theorem margins vs simulation",
	Run: func(cfg experiments.Config, scale experiments.Scale) (experiments.Result, error) {
		opts := validate.DefaultOptions()
		opts.Seed = cfg.Seed
		if scale == experiments.Small {
			opts.Trials = 8
		}
		return checks(validate.All(opts)), nil
	},
})

// checks renders theorem checks one per line, flagging each failure.
type checks []validate.Check

func (cs checks) Render(w io.Writer) error {
	var lines []string
	for _, c := range cs {
		lines = append(lines, c.String())
		if !c.Passed {
			lines = append(lines, "  ^^ FAILED")
		}
	}
	_, err := fmt.Fprintln(w, strings.Join(lines, "\n"))
	return err
}
