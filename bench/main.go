// Command bench is the repository's end-to-end benchmark. It drives the
// paper's two-level loop as the repository ships it — bare sim.Engine
// stepping and a journaled abgd — through public APIs only, checks every
// workload's outputs, and prints one metric set per run.
//
//	bench --workload durable --seed 7 --seconds 10 --trace 0
//	bench --workload all                      # every workload in turn
//	bench --workload engine-10k --trace 1 --trace-out /tmp/engine.json
//	bench --validate run.json                 # check an abg-bench/v2 file
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// runs the same workload with probes on and reports the per-layer metrics.
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":V,"unit":"U"}}}
//
// The lines before it print every metric with its sample count. A failed
// correctness check exits 1. bench/README.md lists the workloads, the
// metrics, their bounds, and which layer metric should move which end-to-end
// metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"abg/internal/obs"
)

// Schema identifies the document --out writes.
const Schema = "abg-bench/v2"

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the scheduler sees, reported by every
// workload with --trace 0. BENCHMARK.json declares the same list with the
// direction and regression bound of each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"recover_s", "s"},
	{"heap_live_mb", "MiB"},
}

// perLayer are the single-layer metrics of a traced run. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"sim.step_ms_p50", "ms"},
	{"sim.allocs_per_quantum", "count"},
	{"sim.admit_ns_per_jobq", "ns"},
	{"sim.allot_ns_per_jobq", "ns"},
	{"sim.execute_ns_per_jobq", "ns"},
	{"sim.reduce_ns_per_jobq", "ns"},
	{"sim.snapshot_encode_ms", "ms"},
	{"sim.snapshot_bytes", "bytes"},
	{"client.ack_p50_ms", "ms"},
	{"server.submit_handler_ms", "ms"},
	{"client.submit_overhead_ms", "ms"},
	{"server.admission_wait_p50_ms", "ms"},
	{"server.fanout_ns_per_event", "ns"},
	{"server.jobs_per_s_decay", "ratio"},
	{"sse.frames_per_job", "count"},
	{"sse.delivery_p50_us", "us"},
	{"sse.dropped", "count"},
	{"client.retries", "count"},
	{"journal.append_us", "us"},
	{"journal.records_per_job", "count"},
	{"journal.bytes_per_job", "bytes"},
	{"journal.snapshot_bytes_last", "bytes"},
	{"go.allocs_per_job", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"host.slowdown", "ratio"},
}

// workload is one named input set. run measures for env.seconds and
// returns the verdict; an error means the run could not complete at all.
type workloadDef struct {
	name string
	run  func(ctx context.Context, e *env) (*result, error)
}

var workloads = []workloadDef{
	{engineName, runEngine},
	{"durable", runDurable},
}

// env is what every workload receives.
type env struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	quick   bool   // tiny sizes: the tests' smoke run of every code path
	dir     string // temporary directory for journals, removed at exit
	spans   *spanLog
}

// result is one workload run: its operations, correctness verdicts and
// measurements.
type result struct {
	attempted, failed int
	checks            []check
	metrics           map[string]measured
}

type check struct {
	name string
	err  error
}

type measured struct {
	value float64
	unit  string
	n     int // samples behind the value
}

func newResult() *result { return &result{metrics: make(map[string]measured)} }

// set records a metric; unit comes from the catalog.
func (r *result) set(name string, value float64, n int) {
	r.metrics[name] = measured{value: value, unit: unitOf(name), n: n}
}

// verify records one correctness verdict.
func (r *result) verify(name string, err error) { r.checks = append(r.checks, check{name, err}) }

func (r *result) correct() bool {
	for _, c := range r.checks {
		if c.err != nil {
			return false
		}
	}
	return len(r.checks) > 0
}

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is not in the catalog")
}

// report selects the metrics the mode prints. A failed operation, a missing
// end-to-end metric or a non-finite value fails the run; a per-layer metric
// the workload does not exercise reads 0. A failed operation fails the run
// because it would otherwise look like a faster one: a daemon that refused
// work would finish fewer jobs at lower latency.
func (r *result) report(trace bool) []metricDef {
	var failedErr error
	if r.failed > 0 {
		failedErr = fmt.Errorf("%d of %d failed", r.failed, r.attempted)
	}
	r.verify("every operation succeeds", failedErr)
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		switch {
		case !ok && trace:
			r.metrics[d.name] = measured{unit: d.unit}
		case !ok:
			r.verify("metric "+d.name, errors.New("not measured"))
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			r.verify("metric "+d.name, fmt.Errorf("value %v has no samples behind it", m.value))
			r.metrics[d.name] = measured{unit: d.unit}
		}
	}
	return defs
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Uint64("seed", 2008, "seed of every generated job")
		seconds  = flag.Int("seconds", 10, "measured seconds per workload")
		trace    = flag.Int("trace", 0, "1 runs with probes on and reports the per-layer metrics")
		traceOut = flag.String("trace-out", "", "with --trace 1, write the spans as Perfetto JSON here")
		workdir  = flag.String("workdir", os.TempDir(), "directory for temporary journals")
		out      = flag.String("out", "", "also write the abg-bench/v2 document here")
		validate = flag.String("validate", "", "validate an abg-bench/v2 document and exit")
		spec     = flag.String("spec", "BENCHMARK.json", "benchmark declaration --validate checks against")
	)
	flag.Parse()
	if err := obs.SetupDefaultLogger("warn"); err != nil {
		fatalf("%v", err)
	}
	if *validate != "" {
		if err := validateFile(*validate, *spec); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%s: valid %s\n", *validate, Schema)
		return
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fatalf("unknown workload %q", *name)
	}

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatalf("%v", err)
	}
	dir, err := os.MkdirTemp(*workdir, "bench-*")
	if err != nil {
		fatalf("%v", err)
	}
	// Journals can reach hundreds of megabytes: remove them on every exit
	// path, interrupt and watchdog included. os.Exit skips deferred calls.
	cleanup := func() { _ = os.RemoveAll(dir) }
	fail := func(format string, args ...any) {
		cleanup()
		fatalf(format, args...)
	}
	defer cleanup()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Give up on a workload that overruns its measured time by much: a
	// 40 s run is abandoned at 140 s and the process exits at 160 s, inside
	// the 180 s a benchmark run may take.
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, dir: dir}
	deadline := time.Duration(len(selected)) * (2*e.seconds + time.Minute)
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	watchdog := time.AfterFunc(deadline+20*time.Second, func() { fail("watchdog: run did not finish") })
	defer watchdog.Stop()

	if e.trace && *traceOut != "" {
		e.spans = newSpanLog()
	}
	doc := docV2{Schema: Schema, Go: runtime.Version(), Seed: *seed, Seconds: *seconds, Trace: e.trace}
	for _, w := range selected {
		res, err := w.run(ctx, e)
		if err != nil {
			fail("%s: %v", w.name, err)
		}
		doc.Workloads = append(doc.Workloads, printResult(w.name, res, e.trace))
	}
	if e.spans != nil {
		if err := e.spans.write(*traceOut); err != nil {
			fail("%v", err)
		}
	}
	if *out != "" {
		if err := writeDoc(*out, doc); err != nil {
			fail("%v", err)
		}
	}
	line, ok := summary(doc)
	fmt.Println(line)
	if !ok {
		cleanup()
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// printResult writes the human-readable table for one workload and returns
// its document entry.
func printResult(name string, r *result, trace bool) workloadDoc {
	defs := r.report(trace)
	wd := workloadDoc{Name: name, Correct: r.correct(), Attempted: r.attempted,
		Failed: r.failed, Metrics: make(map[string]metricDoc)}
	fmt.Printf("== %s  attempted %d  failed %d\n", name, r.attempted, r.failed)
	for _, d := range defs {
		m := r.metrics[d.name]
		note := ""
		if strings.Contains(d.name, "p99") && m.n > 0 && supportedTail(m.n) < 0.99 {
			note = "  (fewer than 10 samples beyond p99)"
		}
		fmt.Printf("  %-30s %14.6g %-6s n=%d%s\n", d.name, m.value, m.unit, m.n, note)
		wd.Metrics[d.name] = metricDoc{Value: m.value, Unit: m.unit, N: m.n}
	}
	if m, ok := r.metrics["host.slowdown"]; ok && !trace {
		fmt.Printf("  timings are at reference host speed: this host ran the probe %.4g× slower (n=%d)\n", m.value, m.n)
	}
	for _, c := range r.checks {
		verdict, detail := "ok", ""
		if c.err != nil {
			verdict, detail = "FAIL", c.err.Error()
		}
		fmt.Printf("  check %-40s %s %s\n", c.name, verdict, detail)
		wd.Checks = append(wd.Checks, checkDoc{Name: c.name, OK: c.err == nil, Detail: detail})
	}
	return wd
}

// summary renders the last output line. A single workload's metrics keep
// their names; with several, each name is prefixed by its workload.
func summary(doc docV2) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	var out struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	out.Correct = true
	out.Metrics = make(map[string]value)
	for _, w := range doc.Workloads {
		out.Correct = out.Correct && w.Correct
		out.Attempted += w.Attempted
		out.Failed += w.Failed
		for k, m := range w.Metrics {
			if len(doc.Workloads) > 1 {
				k = w.Name + "/" + k
			}
			out.Metrics[k] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`,
			out.Attempted, out.Attempted), false
	}
	return string(b), out.Correct
}

// docV2 is the abg-bench/v2 document: every workload's verdicts and
// metrics with their sample counts.
type docV2 struct {
	Schema    string        `json:"schema"`
	Go        string        `json:"go"`
	Seed      uint64        `json:"seed"`
	Seconds   int           `json:"seconds"`
	Trace     bool          `json:"trace"`
	Workloads []workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	Name      string               `json:"name"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Checks    []checkDoc           `json:"checks"`
	Metrics   map[string]metricDoc `json:"metrics"`
}

type checkDoc struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

type metricDoc struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

func writeDoc(path string, doc docV2) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// declaration is the part of BENCHMARK.json validation reads.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// validateFile checks an abg-bench/v2 document: known workloads, every
// correctness verdict true, and — when specPath names a BENCHMARK.json —
// every metric it declares for the document's mode present, finite and in
// its declared unit.
func validateFile(path, specPath string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc docV2
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != Schema {
		return fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, Schema)
	}
	if len(doc.Workloads) == 0 {
		return fmt.Errorf("%s: no workloads", path)
	}
	want := make(map[string]string)
	var names []string
	if specPath != "" {
		rawSpec, err := os.ReadFile(specPath)
		if err != nil {
			return err
		}
		var decl declaration
		if err := json.Unmarshal(rawSpec, &decl); err != nil {
			return fmt.Errorf("%s: %w", specPath, err)
		}
		metrics := decl.EndToEnd
		if doc.Trace {
			metrics = decl.PerLayer
		}
		for _, m := range metrics {
			want[m.Name] = m.Unit
		}
		for _, w := range decl.Workloads {
			names = append(names, w.Name)
		}
	}
	for _, w := range doc.Workloads {
		if len(names) > 0 && !slices.Contains(names, w.Name) {
			return fmt.Errorf("%s: workload %q is not declared in %s", path, w.Name, filepath.Base(specPath))
		}
		for _, c := range w.Checks {
			if !c.OK {
				return fmt.Errorf("%s: %s: check %s failed: %s", path, w.Name, c.Name, c.Detail)
			}
		}
		if !w.Correct || len(w.Checks) == 0 {
			return fmt.Errorf("%s: %s: not verified correct", path, w.Name)
		}
		if w.Failed > 0 {
			return fmt.Errorf("%s: %s: %d of %d operations failed", path, w.Name, w.Failed, w.Attempted)
		}
		var missing []string
		for name, unit := range want {
			m, ok := w.Metrics[name]
			switch {
			case !ok:
				missing = append(missing, name)
			case m.Unit != unit:
				return fmt.Errorf("%s: %s: metric %s has unit %q, want %q", path, w.Name, name, m.Unit, unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				return fmt.Errorf("%s: %s: metric %s is not finite", path, w.Name, name)
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			return fmt.Errorf("%s: %s: missing metrics %s", path, w.Name, strings.Join(missing, ", "))
		}
	}
	return nil
}
