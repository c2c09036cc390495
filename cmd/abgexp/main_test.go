package main

import (
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

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

// TestFirstSigintStopsTheRun: an experiment that does not read the signal
// context still ends on the first SIGINT, at once, with exit code 1 and no
// partial table on stdout.
func TestFirstSigintStopsTheRun(t *testing.T) {
	code, stdout, stderr, after := runInterrupted(t, "-exp", "fig6", "-scale", "full")
	if code != 1 || stdout != "" || !strings.Contains(stderr, "interrupted") {
		t.Fatalf("code=%d stdout=%q stderr=%q", code, stdout, stderr)
	}
	if after >= time.Second {
		t.Fatalf("run returned %v after the first SIGINT, want under 1s", after)
	}
}

// runInterrupted calls run(args) while sending this process SIGINT every
// 10 ms until run returns. It reports run's results and how long run took
// to return after the first signal.
func runInterrupted(t *testing.T, args ...string) (code int, stdout, stderr string, after time.Duration) {
	t.Helper()
	// Until run registers its handler, this one keeps a signal from
	// killing the test binary. It stays registered, for a signal still in
	// flight when run returns.
	signal.Notify(make(chan os.Signal, 1), os.Interrupt)
	var out, errb strings.Builder
	done := make(chan int, 1)
	go func() { done <- run(args, &out, &errb) }()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	first := time.Now()
	for {
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-done:
			return code, out.String(), errb.String(), time.Since(first)
		case <-tick.C:
		}
		if time.Since(first) > 10*time.Second {
			t.Fatal("run did not return within 10s of the first SIGINT")
		}
	}
}
