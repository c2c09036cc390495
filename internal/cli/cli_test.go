package cli

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestVersionLine(t *testing.T) {
	if Version == "" {
		t.Fatal("Version is empty")
	}
	line := VersionLine("abgd")
	if !strings.HasPrefix(line, "abgd "+Version) || !strings.Contains(line, "go") {
		t.Fatalf("VersionLine = %q", line)
	}
}

func TestSignalContextCancelsOnSigint(t *testing.T) {
	ctx, stop := SignalContext()
	defer stop()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context not cancelled by SIGINT")
	}
	if !Interrupted(ctx, &strings.Builder{}, "test") {
		t.Fatal("Interrupted() = false after cancellation")
	}
}

// TestSecondSignalKills: once the first SIGINT has cancelled the context the
// handler is released, so a second SIGINT kills the process, the escape
// hatch when a drain hangs. The test runs its own binary as the process
// under test.
func TestSecondSignalKills(t *testing.T) {
	if slices.Contains(flag.Args(), "second-signal-child") {
		ctx, stop := SignalContext()
		defer stop()
		syscall.Kill(syscall.Getpid(), syscall.SIGINT)
		<-ctx.Done()
		for range 500 {
			syscall.Kill(syscall.Getpid(), syscall.SIGINT)
			time.Sleep(10 * time.Millisecond)
		}
		os.Exit(0) // 5 s of signals after the first were all swallowed
	}
	err := exec.Command(os.Args[0], "-test.run=^TestSecondSignalKills$", "--", "second-signal-child").Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("child: %v, want it killed by the second SIGINT", err)
	}
	if ws, ok := exit.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGINT {
		t.Fatalf("child: %v, want it killed by the second SIGINT", err)
	}
}
