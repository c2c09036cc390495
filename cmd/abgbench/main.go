// Command abgbench measures Engine.Step throughput at increasing scale and
// emits a schema-stable BENCH_<n>.json, the repo's perf trajectory: every
// optimisation PR runs it and commits the next file, so regressions and wins
// are visible as a series rather than folklore.
//
// Each size boots a fresh engine, submits that many jobs (widths cycled
// 1/2/4/8 to exercise the allocator), and steps to completion while
// measuring wall time and allocations. Reported per size:
//
//	quantaPerSec     engine boundaries executed per second
//	nsPerJobStep     wall nanoseconds per executed job-quantum
//	allocsPerQuantum heap allocations per boundary
//
// The workload is deterministic (fixed seed, constant-width profiles), so
// runs differ only in machine speed — the numbers are comparable on one
// machine across commits.
//
//	abgbench                      # 1k/10k/100k jobs, writes BENCH_<n>.json
//	abgbench -quick               # small sizes, for CI schema smoke
//	abgbench -out /tmp/b.json     # explicit output path
//	abgbench -validate BENCH_1.json  # schema-check an existing file
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"abg/internal/alloc"
	"abg/internal/cli"
	"abg/internal/core"
	"abg/internal/job"
	"abg/internal/sim"
	"abg/internal/workload"
)

// Schema is the BENCH file format identifier; bump only with a migration
// note in DESIGN.md, since check.sh and future tooling parse it.
const Schema = "abg-bench/v1"

// Doc is one BENCH_<n>.json file.
type Doc struct {
	Schema    string `json:"schema"`
	Go        string `json:"go"`
	Version   string `json:"version"`
	Scheduler string `json:"scheduler"`
	Quick     bool   `json:"quick,omitempty"`
	Sizes     []Size `json:"sizes"`
}

// Size is the measurement at one concurrency level.
type Size struct {
	Jobs int `json:"jobs"`
	P    int `json:"p"`
	L    int `json:"l"`
	// Shards is the mini-cluster width of an entry written by the removed
	// -shards dimension (BENCH_3.json); absent in single-engine entries.
	Shards int `json:"shards,omitempty"`
	// Quanta is the number of engine boundaries executed; JobQuanta the
	// total per-job quantum executions summed over jobs.
	Quanta    int   `json:"quanta"`
	JobQuanta int   `json:"jobQuanta"`
	Makespan  int64 `json:"makespanSteps"`
	ElapsedNs int64 `json:"elapsedNs"`

	QuantaPerSec     float64 `json:"quantaPerSec"`
	NsPerJobStep     float64 `json:"nsPerJobStep"`
	AllocsPerQuantum float64 `json:"allocsPerQuantum"`
}

func main() {
	var (
		sizesFlag = flag.String("sizes", "1000,10000,100000", "comma-separated job counts")
		quick     = flag.Bool("quick", false, "small sizes for a fast CI schema smoke (overrides -sizes)")
		out       = flag.String("out", "", "output path (default: next BENCH_<n>.json in the working directory)")
		validate  = flag.String("validate", "", "validate an existing BENCH file's schema and exit")
		l         = flag.Int("L", 100, "quantum length (steps)")
		r         = flag.Float64("r", 0.2, "ABG convergence rate")
		version   = cli.VersionFlag()
	)
	flag.Parse()
	cli.ExitIfVersion("abgbench", *version)

	if *validate != "" {
		if err := validateFile(*validate); err != nil {
			fmt.Fprintf(os.Stderr, "abgbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid %s\n", *validate, Schema)
		return
	}

	spec := *sizesFlag
	if *quick {
		spec = "200,1000"
	}
	var sizes []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "abgbench: bad size %q\n", f)
			os.Exit(2)
		}
		sizes = append(sizes, n)
	}

	doc := Doc{
		Schema: Schema, Go: runtime.Version(), Version: cli.Version,
		Scheduler: core.NewABG(*r).Name(), Quick: *quick,
	}
	for _, n := range sizes {
		sz, err := benchOne(n, *l, *r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "abgbench: %d jobs: %v\n", n, err)
			os.Exit(1)
		}
		doc.Sizes = append(doc.Sizes, sz)
		fmt.Fprintf(os.Stderr, "[%7d jobs] %8.0f quanta/s  %7.0f ns/job-step  %6.1f allocs/quantum\n",
			sz.Jobs, sz.QuantaPerSec, sz.NsPerJobStep, sz.AllocsPerQuantum)
	}

	path, err := writeDoc(doc, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abgbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

// writeDoc persists doc atomically: the document is encoded to a temp file in
// the destination directory, schema-validated on disk, and only then committed
// under its final name. Without -out the next free BENCH_<n>.json index is
// claimed with os.Link, which fails with ErrExist instead of clobbering — two
// racing abgbench runs get distinct indices, and a half-written or invalid
// file can never shadow an existing BENCH_<n>.json.
func writeDoc(doc Doc, out string) (string, error) {
	dir := "."
	if out != "" {
		if dir = filepath.Dir(out); dir == "" {
			dir = "."
		}
	}
	tmp, err := os.CreateTemp(dir, ".bench-*.tmp")
	if err != nil {
		return "", err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err != nil {
		return "", fmt.Errorf("write %s: %w", tmpName, err)
	}
	// Validate what actually landed on disk before committing it.
	if err := validateFile(tmpName); err != nil {
		return "", fmt.Errorf("refusing to commit invalid document: %w", err)
	}
	if out != "" {
		return out, os.Rename(tmpName, out)
	}
	for n := nextBenchIndex(dir); ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		switch err := os.Link(tmpName, path); {
		case err == nil:
			return path, nil
		case !errors.Is(err, fs.ErrExist):
			return "", err
		}
	}
}

// benchOne runs one size to completion and measures it. P is 2× the job
// count: equi-partitioning then guarantees every job ≥2 processors (no
// stalled boundaries), while the width-4/8 jobs still start deprived — the
// allocator and the ABG feedback loop both do real work at every scale.
func benchOne(jobs, l int, r float64) (Size, error) {
	p := 2 * jobs
	scheduler := core.NewABG(r)
	eng, err := sim.NewEngine(sim.MultiConfig{
		P: p, L: l, Allocator: alloc.DynamicEquiPartition{},
		MaxQuanta: 1 << 30,
	})
	if err != nil {
		return Size{}, err
	}
	// Profiles are immutable run descriptions; per-job cursor state lives in
	// the job.NewRun instance. Sharing the four distinct profiles instead of
	// building one per job keeps the 100k-job heap small enough that the
	// measurement reflects Step, not the GC walking submission garbage.
	widths := [4]int{1, 2, 4, 8}
	var profiles [4]*job.Profile
	for i, w := range widths {
		profiles[i] = workload.ConstantJob(w, 3, l)
	}
	for i := 0; i < jobs; i++ {
		_, err := eng.Submit(sim.JobSpec{
			Name:   fmt.Sprintf("bench%d", i),
			Inst:   job.NewRun(profiles[i%4]),
			Policy: scheduler.NewPolicy(),
			Sched:  scheduler.TaskScheduler(),
		})
		if err != nil {
			return Size{}, err
		}
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	quanta := 0
	for !eng.Done() {
		if _, err := eng.Step(); err != nil {
			return Size{}, err
		}
		quanta++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	res := eng.Result()
	jobQuanta := 0
	for _, j := range res.Jobs {
		jobQuanta += j.NumQuanta
	}
	if quanta == 0 || jobQuanta == 0 {
		return Size{}, fmt.Errorf("engine executed nothing (quanta=%d jobQuanta=%d)", quanta, jobQuanta)
	}
	return Size{
		Jobs: jobs, P: p, L: l,
		Quanta: quanta, JobQuanta: jobQuanta,
		Makespan:  res.Makespan,
		ElapsedNs: elapsed.Nanoseconds(),

		QuantaPerSec:     float64(quanta) / elapsed.Seconds(),
		NsPerJobStep:     float64(elapsed.Nanoseconds()) / float64(jobQuanta),
		AllocsPerQuantum: float64(after.Mallocs-before.Mallocs) / float64(quanta),
	}, nil
}

// nextBenchIndex returns the smallest index past every existing BENCH file
// in dir. A starting point only: writeDoc's link loop re-probes forward, so a
// file created between the scan and the claim is skipped, never overwritten.
func nextBenchIndex(dir string) int {
	next := 1
	matches, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	sort.Strings(matches)
	for _, m := range matches {
		base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "BENCH_"), ".json")
		if n, err := strconv.Atoi(base); err == nil && n >= next {
			next = n + 1
		}
	}
	return next
}

// validateFile checks that path parses as the current BENCH schema with
// sane values — the CI smoke behind scripts/bench.sh -quick.
func validateFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc Doc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != Schema {
		return fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, Schema)
	}
	if doc.Go == "" || doc.Scheduler == "" {
		return fmt.Errorf("%s: missing go/scheduler metadata", path)
	}
	if len(doc.Sizes) == 0 {
		return fmt.Errorf("%s: no sizes", path)
	}
	for i, s := range doc.Sizes {
		switch {
		case s.Jobs <= 0 || s.P <= 0 || s.L <= 0:
			return fmt.Errorf("%s: size %d: bad dimensions %+v", path, i, s)
		case s.Quanta <= 0 || s.JobQuanta < s.Quanta || s.Makespan <= 0:
			return fmt.Errorf("%s: size %d: bad counts %+v", path, i, s)
		case s.ElapsedNs <= 0 || s.QuantaPerSec <= 0 || s.NsPerJobStep <= 0 || s.AllocsPerQuantum < 0:
			return fmt.Errorf("%s: size %d: bad rates %+v", path, i, s)
		}
	}
	return nil
}
