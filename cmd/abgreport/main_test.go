package main

import (
	"bytes"
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

// TestSeedZeroIsSeedZero: -seed 0 runs seed 0, not the default seed. Each
// section body must be what `abgexp -seed 0` prints for that experiment
// (the catalogue entry rendered at seed 0), and some must differ from the
// default seed's goldens.
func TestSeedZeroIsSeedZero(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64 bytes; %s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	names := experiments.Names()
	var out, errb strings.Builder
	if code := run([]string{"-seed", "0", "-sections", strings.Join(names, ",")}, &out, &errb); code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "seed 0 ·") {
		t.Fatalf("report header does not name seed 0:\n%s", out.String())
	}
	parts := strings.Split(out.String(), "```\n")
	if len(parts) != 2*len(names)+1 {
		t.Fatalf("%d fenced parts in the report, want %d sections", len(parts)/2, len(names))
	}
	cfg := experiments.Defaults()
	cfg.Seed = 0
	moved := 0
	for i, name := range names {
		e, _ := experiments.Lookup(name)
		res, err := e.Run(cfg, experiments.Small)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := res.Render(&want); err != nil {
			t.Fatal(err)
		}
		if got := parts[2*i+1]; got != want.String() {
			t.Errorf("section %s differs from abgexp -seed 0:\n--- report\n%s\n--- abgexp\n%s", name, got, want.String())
		}
		golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", name+".small.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if want.String() != string(golden) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no section differs from the default seed's output")
	}
}

// TestFirstSigintStopsTheReport: the report ends on the first SIGINT, at
// once, with exit code 1 and nothing on stdout.
func TestFirstSigintStopsTheReport(t *testing.T) {
	code, stdout, stderr, after := runInterrupted(t, "-scale", "full", "-sections", "fig6")
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
