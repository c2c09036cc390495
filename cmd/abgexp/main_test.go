package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"abg/internal/experiments"
)

// exec runs the command with args and returns (exit code, stdout, stderr).
func exec(args ...string) (int, string, string) {
	var out, errb strings.Builder
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUnknownScaleExits2(t *testing.T) {
	for _, name := range experiments.Names() {
		code, stdout, stderr := exec("-exp", name, "-scale", "bogus")
		if code != 2 || stdout != "" || !strings.Contains(stderr, `unknown scale "bogus"`) {
			t.Fatalf("-exp %s -scale bogus: code=%d stdout=%q stderr=%q", name, code, stdout, stderr)
		}
	}
}

func TestUnknownExperimentExits2(t *testing.T) {
	code, _, stderr := exec("-exp", "fig7", "-scale", "small")
	if code != 2 || !strings.Contains(stderr, `unknown experiment "fig7"`) {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

func TestUsageListsCatalogue(t *testing.T) {
	code, _, stderr := exec("-h")
	if code != 0 {
		t.Fatalf("-h exit code %d", code)
	}
	if want := strings.Join(experiments.Names(), "|"); !strings.Contains(stderr, want) {
		t.Fatalf("usage lacks %q:\n%s", want, stderr)
	}
}

// TestOutputMatchesGolden pins the command's stdout and -csv file to the
// catalogue goldens (internal/experiments/testdata).
func TestOutputMatchesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64 bytes; %s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	csvPath := filepath.Join(t.TempDir(), "fig1.csv")
	code, stdout, stderr := exec("-exp", "fig1", "-scale", "small", "-csv", csvPath)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr)
	}
	for path, got := range map[string]string{"fig1.small.golden": stdout, "fig1.small.csv.golden": readFile(t, csvPath)} {
		if want := readFile(t, filepath.Join("..", "..", "internal", "experiments", "testdata", path)); got != want {
			t.Errorf("%s differs:\n--- got\n%s\n--- want\n%s", path, got, want)
		}
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
