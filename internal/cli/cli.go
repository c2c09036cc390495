// Package cli holds the small lifecycle helpers shared by every command of
// the repository: the toolchain version string behind the uniform -version
// flag, and the signal-aware root context that gives all commands the same
// SIGINT/SIGTERM graceful-shutdown behaviour (first signal cancels the
// context so the command can drain; a second signal kills the process).
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

// Version identifies the build of the abg toolchain; every command prints
// it via -version, and abgd reports it from /api/v1/version.
const Version = "0.5.0"

// VersionFlag registers the uniform -version flag on the default FlagSet.
// Call it alongside the command's other flag declarations, then pass the
// parsed value to ExitIfVersion after flag.Parse.
func VersionFlag() *bool {
	return flag.Bool("version", false, "print version and exit")
}

// VersionFlagSet is VersionFlag for commands that parse a private FlagSet
// (testable run() mains that must not touch the process-global flag state).
func VersionFlagSet(fs *flag.FlagSet) *bool {
	return fs.Bool("version", false, "print version and exit")
}

// ExitIfVersion prints the command's version line and exits 0 when show is
// set; otherwise it is a no-op.
func ExitIfVersion(cmd string, show bool) {
	if !show {
		return
	}
	fmt.Fprintln(os.Stdout, VersionLine(cmd))
	os.Exit(0)
}

// VersionLine renders "<cmd> <version> (<go> <os>/<arch>)".
func VersionLine(cmd string) string {
	return fmt.Sprintf("%s %s (%s %s/%s)",
		cmd, Version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// SignalContext returns a context cancelled on SIGINT or SIGTERM. After the
// first signal the handler is unregistered, so a second signal terminates
// the process with the default disposition — the escape hatch when a drain
// hangs. Call stop to release the signal handler early.
func SignalContext() (ctx context.Context, stop context.CancelFunc) {
	ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// NotifyContext keeps catching signals until stop is called, which
	// would swallow the second one.
	context.AfterFunc(ctx, stop)
	return ctx, stop
}

// Interruptible runs f on a goroutine of its own and returns f's error, or
// ctx's as soon as ctx is done, whichever comes first. It is how a command
// whose work does not read ctx (an experiment, a report) still stops on the
// first signal: the interrupted f runs on until the process exits, and the
// caller must not use anything f writes.
func Interruptible(ctx context.Context, f func() error) error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Interrupted reports whether the signal context was cancelled, and if so
// prints a one-line notice so an operator watching the command knows the
// early exit was signal-driven. It returns true when ctx is done.
func Interrupted(ctx context.Context, w io.Writer, cmd string) bool {
	if ctx.Err() == nil {
		return false
	}
	fmt.Fprintf(w, "%s: interrupted, shutting down\n", cmd)
	return true
}
