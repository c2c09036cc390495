package abg

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/commands/*.golden from the built commands")

// commandLine is one entry of testdata/commands/commands.txt.
type commandLine struct {
	golden, bin string
	args        []string
}

// readCommandLines parses the manifest: one "<golden> <binary> <args...>"
// per line, # comments and blank lines skipped.
func readCommandLines(t *testing.T) []commandLine {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "commands", "commands.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []commandLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 2 {
			t.Fatalf("commands.txt: %q names no binary", sc.Text())
		}
		out = append(out, commandLine{golden: fields[0], bin: fields[1], args: fields[2:]})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCommandGoldens builds abgvalidate, abgsim and the examples, runs each
// command line of testdata/commands/commands.txt and requires its stdout to
// equal testdata/commands/<golden>.golden byte for byte (-update rewrites
// the files). None of these commands prints elapsed time on stdout, so the
// bytes are a pure function of the code: a change that moves a theorem
// margin, a simulated schedule or an example's numbers fails here.
func TestCommandGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64 bytes; %s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	lines := readCommandLines(t)
	bin := t.TempDir()
	build := exec.Command(goBin, "build", "-o", bin+string(filepath.Separator),
		"./cmd/abgvalidate", "./cmd/abgsim", "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, cl := range lines {
		t.Run(cl.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, cl.bin), cl.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s %s: %v\n%s", cl.bin, strings.Join(cl.args, " "), err, stderr.Bytes())
			}
			path := filepath.Join("testdata", "commands", cl.golden+".golden")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("%s %s differs from %s (-update rewrites it)\n--- got\n%s\n--- want\n%s",
					cl.bin, strings.Join(cl.args, " "), path, stdout.Bytes(), want)
			}
		})
	}
}

// TestCommandGoldensListed fails on a golden file the manifest does not
// name, such as one left behind by a renamed command line.
func TestCommandGoldensListed(t *testing.T) {
	listed := map[string]bool{}
	for _, cl := range readCommandLines(t) {
		listed[cl.golden+".golden"] = true
	}
	files, err := filepath.Glob(filepath.Join("testdata", "commands", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(listed) {
		t.Errorf("%d golden files for %d command lines", len(files), len(listed))
	}
	for _, f := range files {
		if !listed[filepath.Base(f)] {
			t.Errorf("%s names no line of commands.txt", f)
		}
	}
}
