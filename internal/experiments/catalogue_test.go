package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"abg/internal/stats"
	"abg/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the catalogue")

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the catalogue's output (-update rewrites it)\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// TestCatalogueGoldens renders every catalogue entry at every scale and
// requires the bytes `abgexp -exp <name> -scale <scale>` prints, kept in
// testdata/<name>.<scale>.golden. An entry with a main series also pins
// its small-scale `abgexp -csv` export in <name>.small.csv.golden.
func TestCatalogueGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64 bytes; %s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	for _, e := range Catalogue {
		for _, s := range Scales {
			t.Run(e.Name+"/"+string(s), func(t *testing.T) {
				res, err := e.Run(Defaults(), s)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := res.Render(&out); err != nil {
					t.Fatal(err)
				}
				checkGolden(t, e.Name+"."+string(s)+".golden", out.Bytes())
				if series := SeriesOf(res); series != nil && s == Small {
					var csv bytes.Buffer
					if err := trace.WriteSeriesCSV(&csv, series); err != nil {
						t.Fatal(err)
					}
					checkGolden(t, e.Name+".small.csv.golden", csv.Bytes())
				}
			})
		}
	}
}

// TestGoldensBelongToCatalogue fails on a golden file no catalogue entry
// writes, such as one left behind by a renamed experiment.
func TestGoldensBelongToCatalogue(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(Catalogue)*len(Scales)+6 {
		t.Errorf("%d golden files, want %d renders and 6 series", len(files), len(Catalogue)*len(Scales))
	}
	for _, f := range files {
		name, scale, _ := strings.Cut(strings.TrimSuffix(filepath.Base(f), ".golden"), ".")
		scale = strings.TrimSuffix(scale, ".csv")
		if _, ok := Lookup(name); !ok || !slices.Contains(Scales, Scale(scale)) {
			t.Errorf("%s names no catalogue entry and scale", f)
		}
	}
}

func TestParseScale(t *testing.T) {
	for _, s := range Scales {
		if got, err := ParseScale(string(s)); err != nil || got != s {
			t.Fatalf("ParseScale(%q) = %q, %v", s, got, err)
		}
	}
	for _, bad := range []string{"", "bogus", "Small", "paper"} {
		if _, err := ParseScale(bad); err == nil {
			t.Fatalf("ParseScale(%q) accepted", bad)
		}
	}
}

func TestLookupAndNames(t *testing.T) {
	names := Names()
	if len(names) != 14 || names[0] != "fig1" || names[13] != "opensystem" {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		if e, ok := Lookup(n); !ok || e.Name != n || e.Title == "" || e.Run == nil {
			t.Fatalf("Lookup(%q) = %+v, %v", n, e, ok)
		}
	}
	if _, ok := Lookup("validate"); ok {
		t.Fatal("the report-only validate section is not an experiment")
	}
}

func TestTransientSeries(t *testing.T) {
	r := TransientResult{
		ABGRequests:     []float64{1, 9, 11},
		AGreedyRequests: []float64{1, 2, 4, 8},
	}
	series := r.Series()
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	if len(series[0].X) != 3 || series[0].X[2] != 3 {
		t.Fatalf("abg x axis: %v", series[0].X)
	}
	if len(series[1].X) != 4 || series[1].Y[3] != 8 {
		t.Fatalf("agreedy series: %+v", series[1])
	}
}

func TestFig5Series(t *testing.T) {
	r := Fig5Result{Points: []Fig5Point{
		{CL: 2, ABGRuntime: 1.1, AGRuntime: 1.3, RuntimeRatio: 1.18, ABGWaste: 0.4, AGWaste: 0.8, WasteRatio: 2},
		{CL: 50, ABGRuntime: 1.4, AGRuntime: 1.6, RuntimeRatio: 1.14, ABGWaste: 0.6, AGWaste: 0.9, WasteRatio: 1.5},
	}}
	series := r.Series()
	if len(series) != 6 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.X) != 2 || s.X[0] != 2 || s.X[1] != 50 {
			t.Fatalf("series %s x axis: %v", s.Name, s.X)
		}
	}
	if series[0].Name != "abg-runtime" || series[0].Y[1] != 1.4 {
		t.Fatalf("first series: %+v", series[0])
	}
	if series[5].Name != "waste-ratio" || series[5].Y[0] != 2 {
		t.Fatalf("last series: %+v", series[5])
	}
}

func TestFig6Series(t *testing.T) {
	r := Fig6Result{
		ABGMakespanCurve:   []stats.Point{{X: 1, Y: 1.5}},
		AGMakespanCurve:    []stats.Point{{X: 1, Y: 1.7}},
		MakespanRatioCurve: []stats.Point{{X: 1, Y: 1.13}},
		ABGResponseCurve:   []stats.Point{{X: 1, Y: 1.4}},
		AGResponseCurve:    []stats.Point{{X: 1, Y: 1.6}},
		ResponseRatioCurve: []stats.Point{{X: 1, Y: 1.14}},
	}
	series := r.Series()
	if len(series) != 6 {
		t.Fatalf("series = %d", len(series))
	}
	if series[2].Name != "makespan-ratio" || series[2].Y[0] != 1.13 {
		t.Fatalf("ratio series: %+v", series[2])
	}
}
