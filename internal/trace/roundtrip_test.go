package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"abg/internal/sched"
)

// sampleRecords builds an export trace that exercises both deprivation
// states and the completion flag.
func sampleRecords() []Record {
	return FromQuanta([]sched.QuantumStats{
		{Index: 1, Start: 0, Length: 100, Steps: 100, Request: 2, Allotment: 2,
			Work: 180, CPL: 90, LevelsTouched: 3},
		{Index: 2, Start: 100, Length: 100, Steps: 100, Request: 6, Allotment: 4,
			Work: 380, CPL: 95, Deprived: true, LevelsTouched: 5},
		{Index: 3, Start: 200, Length: 100, Steps: 40, Request: 4, Allotment: 4,
			Work: 150, CPL: 38, Completed: true, LevelsTouched: 2},
	})
}

// recordsAlmostEqual compares record slices, tolerating the float rounding
// of the 10-significant-digit CSV encoding.
func recordsAlmostEqual(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	for i := range want {
		g, w := got[i], want[i]
		if g.Quantum != w.Quantum || g.Allotment != w.Allotment || g.Steps != w.Steps ||
			g.Work != w.Work || g.Waste != w.Waste || g.LevelsTouched != w.LevelsTouched ||
			g.Full != w.Full || g.Deprived != w.Deprived || g.Completed != w.Completed ||
			!near(g.Request, w.Request) || !near(g.CPL, w.CPL) ||
			!near(g.Parallelism, w.Parallelism) || !near(g.WorkEff, w.WorkEff) ||
			!near(g.CPLEff, w.CPLEff) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	want := sampleRecords()
	var sb strings.Builder
	if err := WriteCSV(&sb, want); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows[0], csvHeader) {
		t.Fatalf("header = %v", rows[0])
	}
	got := make([]Record, len(rows)-1)
	for i, row := range rows[1:] {
		r := &got[i]
		fields := []any{&r.Quantum, &r.Request, &r.Allotment, &r.Steps, &r.Work, &r.CPL,
			&r.Parallelism, &r.Waste, &r.Full, &r.Deprived, &r.Completed,
			&r.WorkEff, &r.CPLEff, &r.LevelsTouched}
		if len(row) != len(fields) {
			t.Fatalf("row %d has %d columns, want %d", i+1, len(row), len(fields))
		}
		for j, cell := range row {
			if _, err := fmt.Sscan(cell, fields[j]); err != nil {
				t.Fatalf("row %d column %s = %q: %v", i+1, csvHeader[j], cell, err)
			}
		}
	}
	recordsAlmostEqual(t, got, want)
	// The boolean columns must actually carry through, not default to false.
	if !got[1].Deprived || got[0].Deprived {
		t.Fatalf("deprived column mangled: %+v", got)
	}
	if !got[2].Completed || got[0].Completed {
		t.Fatalf("completed column mangled: %+v", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	want := sampleRecords()
	var sb strings.Builder
	if err := WriteJSON(&sb, want); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatal(err)
	}
	// JSON floats round-trip exactly.
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("JSON round trip:\n got %+v\nwant %+v", got, want)
	}
	if !got[1].Deprived || !got[2].Completed {
		t.Fatalf("boolean fields mangled: %+v", got)
	}
}
