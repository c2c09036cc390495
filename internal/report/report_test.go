package report

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"abg/internal/experiments"
)

func TestGenerateSmallSubset(t *testing.T) {
	var sb strings.Builder
	err := Generate(&sb, Options{
		Seed:     7,
		Scale:    experiments.Small,
		Sections: []string{"fig1", "fig4", "validate"},
		Now:      time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{
		"# ABG reproduction report",
		"## Figure 1",
		"## Figure 4",
		"## Theorem margins",
		"PASS",
		"Generated: 2026-07-06",
		"```",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("report missing %q", frag)
		}
	}
	// Unselected sections must be absent.
	if strings.Contains(out, "## Figure 5") {
		t.Fatal("unselected section included")
	}
	if strings.Contains(out, "FAILED") {
		t.Fatal("a validation check failed inside the report")
	}
}

func TestGenerateUnknownSection(t *testing.T) {
	var sb strings.Builder
	if err := Generate(&sb, Options{Sections: []string{"nope"}}); err == nil {
		t.Fatal("unknown section accepted")
	}
}

func TestGenerateAllSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-scale report")
	}
	var sb strings.Builder
	if err := Generate(&sb, Options{Scale: experiments.Small}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"## Figure 5", "## Figure 6", "work-stealing", "historical",
		"injected faults", "Poisson arrivals", "## Theorem margins"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("full report missing %q", frag)
		}
	}
}

func TestKnownSections(t *testing.T) {
	names := KnownSections()
	if len(names) != len(sections) {
		t.Fatal("section list mismatch")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate section %q", n)
		}
		seen[n] = true
	}
}

// TestSectionsMatchAbgexp requires every experiment section's body to be
// the bytes abgexp prints for that experiment and scale, as pinned by the
// catalogue goldens.
func TestSectionsMatchAbgexp(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64 bytes; %s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	for _, name := range experiments.Names() {
		for _, scale := range experiments.Scales {
			var sb strings.Builder
			opts := Options{Seed: experiments.Defaults().Seed, Scale: scale, Sections: []string{name}}
			if err := Generate(&sb, opts); err != nil {
				t.Fatal(err)
			}
			_, body, ok := strings.Cut(sb.String(), "```\n")
			body, closed := strings.CutSuffix(body, "```\n\n")
			if !ok || !closed {
				t.Fatalf("%s %s: no fenced body in\n%s", name, scale, sb.String())
			}
			golden, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", name+"."+string(scale)+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if body != string(golden) {
				t.Errorf("%s %s: section body differs from abgexp's output\n--- report\n%s\n--- abgexp\n%s", name, scale, body, golden)
			}
		}
	}
}

func TestGenerateRejectsUnknownScale(t *testing.T) {
	var sb strings.Builder
	err := Generate(&sb, Options{Scale: "bogus", Sections: []string{"fig1"}})
	if err == nil || !strings.Contains(err.Error(), `unknown scale "bogus"`) {
		t.Fatalf("err = %v", err)
	}
	if sb.Len() != 0 {
		t.Fatalf("wrote %q before rejecting the scale", sb.String())
	}
}
