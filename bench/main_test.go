package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// specPath is the repository's benchmark declaration, one directory up.
const specPath = "../BENCHMARK.json"

func readSpec(t *testing.T) declaration {
	t.Helper()
	raw, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// The program's catalog and BENCHMARK.json must name the same workloads and
// metrics, in the same order, with the same units.
func TestCatalogMatchesDeclaration(t *testing.T) {
	d := readSpec(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range d.Workloads {
		declared = append(declared, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(declared, ",") {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", names, declared)
	}
	compare := func(kind string, defs []metricDef, decl []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(decl) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(decl))
			return
		}
		for i := range defs {
			if defs[i].name != decl[i].Name || defs[i].unit != decl[i].Unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]",
					kind, i, defs[i].name, defs[i].unit, decl[i].Name, decl[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, d.EndToEnd)
	compare("per_layer", perLayer, d.PerLayer)
}

// runQuick runs every workload at tiny sizes and returns the documents
// main would print.
func runQuick(t *testing.T, trace bool) docV2 {
	t.Helper()
	e := &env{seed: 7, seconds: time.Second, trace: trace, quick: true, dir: t.TempDir()}
	if trace {
		e.spans = newSpanLog()
	}
	doc := docV2{Schema: Schema, Go: "test", Seed: e.seed, Seconds: 1, Trace: trace}
	for _, w := range workloads {
		res, err := w.run(context.Background(), e)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		doc.Workloads = append(doc.Workloads, printResult(w.name, res, trace))
	}
	if trace {
		out := filepath.Join(t.TempDir(), "trace.json")
		if err := e.spans.write(out); err != nil {
			t.Fatal(err)
		}
		checkTraceFile(t, out)
	}
	return doc
}

// checkTraceFile asserts the Perfetto file parses and has spans on every
// workload's tracks.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	tracks := make(map[int]string)
	spans := make(map[string]int)
	for _, ev := range f.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			tracks[ev.Tid], _ = ev.Args["name"].(string)
		case ev.Ph == "X":
			spans[strings.Fields(tracks[ev.Tid])[0]]++
		}
	}
	for _, w := range workloads {
		if spans[w.name] == 0 {
			t.Errorf("trace has no spans on %s's tracks (spans per workload: %v)", w.name, spans)
		}
	}
}

// Every declared metric is emitted, finite and in its unit, by every
// workload in both modes, and every correctness check passes.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	for _, trace := range []bool{false, true} {
		doc := runQuick(t, trace)
		path := filepath.Join(t.TempDir(), "run.json")
		if err := writeDoc(path, doc); err != nil {
			t.Fatal(err)
		}
		if err := validateFile(path, specPath); err != nil {
			t.Errorf("trace=%v: %v", trace, err)
		}
		if line, ok := summary(doc); !ok {
			t.Errorf("trace=%v: summary reports a failure: %s", trace, line)
		}
		if trace {
			continue
		}
		for _, w := range doc.Workloads {
			for name, m := range w.Metrics {
				if m.Value <= 0 || math.IsNaN(m.Value) {
					t.Errorf("%s: end-to-end metric %s = %v; end-to-end metrics are never 0", w.Name, name, m.Value)
				}
			}
		}
	}
}

func TestValidateRejectsMissingMetric(t *testing.T) {
	doc := docV2{Schema: Schema, Workloads: []workloadDoc{{
		Name: "durable", Correct: true, Attempted: 1,
		Checks:  []checkDoc{{Name: "every acked job completes", OK: true}},
		Metrics: make(map[string]metricDoc),
	}}}
	for _, d := range endToEnd {
		doc.Workloads[0].Metrics[d.name] = metricDoc{Value: 1, Unit: d.unit, N: 1}
	}
	dir := t.TempDir()
	write := func() string {
		path := filepath.Join(dir, "doc.json")
		if err := writeDoc(path, doc); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if err := validateFile(write(), specPath); err != nil {
		t.Fatalf("complete document rejected: %v", err)
	}

	delete(doc.Workloads[0].Metrics, "recover_s")
	if err := validateFile(write(), specPath); err == nil || !strings.Contains(err.Error(), "recover_s") {
		t.Errorf("document missing recover_s: err = %v", err)
	}
	doc.Workloads[0].Metrics["recover_s"] = metricDoc{Value: 1, Unit: "ms"}
	if err := validateFile(write(), specPath); err == nil || !strings.Contains(err.Error(), "unit") {
		t.Errorf("document with recover_s in ms: err = %v", err)
	}
	doc.Workloads[0].Metrics["recover_s"] = metricDoc{Value: 1, Unit: "s"}
	doc.Workloads[0].Checks[0].OK = false
	if err := validateFile(write(), specPath); err == nil || !strings.Contains(err.Error(), "check") {
		t.Errorf("document with a failed check: err = %v", err)
	}
	doc.Workloads[0].Checks[0].OK = true
	doc.Workloads[0].Failed = 1
	if err := validateFile(write(), specPath); err == nil || !strings.Contains(err.Error(), "failed") {
		t.Errorf("document with a failed operation: err = %v", err)
	}
	doc.Workloads[0].Failed = 0
	doc.Workloads[0].Name = "unknown"
	if err := validateFile(write(), specPath); err == nil {
		t.Error("document with an undeclared workload validated")
	}
}

// A run whose every check passed is still incorrect once one operation
// failed: a daemon refusing work must not read as a faster one.
func TestFailedOperationFailsRun(t *testing.T) {
	r := newResult()
	r.attempted, r.failed = 10, 1
	r.verify("every acked job completes", nil)
	for _, d := range endToEnd {
		r.set(d.name, 1, 1)
	}
	r.report(false)
	if r.correct() {
		t.Error("a run with a failed operation is correct")
	}
}

func TestValidateRejectsOtherSchemas(t *testing.T) {
	for _, bench := range []string{"../BENCH_1.json", "../BENCH_3.json"} {
		if err := validateFile(bench, specPath); err == nil || !strings.Contains(err.Error(), "schema") {
			t.Errorf("%s: err = %v, want a schema mismatch (v1 files belong to cmd/abgbench -validate)", bench, err)
		}
	}
}
