package job

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

func TestNewProfileValidation(t *testing.T) {
	cases := []struct {
		name   string
		levels []Level
		ok     bool
	}{
		{"empty", nil, false},
		{"zero width", []Level{{Width: 0, Kind: Sync}}, false},
		{"negative width", []Level{{Width: -3, Kind: Sync}}, false},
		{"chain first", []Level{{Width: 2, Kind: Chain}}, false},
		{"chain width mismatch", []Level{{Width: 2, Kind: Sync}, {Width: 3, Kind: Chain}}, false},
		{"valid single", []Level{{Width: 4, Kind: Sync}}, true},
		{"valid chain", []Level{{Width: 4, Kind: Sync}, {Width: 4, Kind: Chain}}, true},
		{"valid sync resize", []Level{{Width: 4, Kind: Sync}, {Width: 9, Kind: Sync}}, true},
		{"unknown kind", []Level{{Width: 4, Kind: Sync}, {Width: 4, Kind: 2}}, false},
	}
	for _, c := range cases {
		_, err := NewProfile(c.levels)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestProfileAccessors(t *testing.T) {
	p := MustProfile([]Level{
		{Width: 1, Kind: Sync},
		{Width: 5, Kind: Sync},
		{Width: 5, Kind: Chain},
	})
	if p.Work() != 11 {
		t.Fatalf("work = %d", p.Work())
	}
	if p.CriticalPathLen() != 3 {
		t.Fatalf("cpl = %d", p.CriticalPathLen())
	}
	if got := p.AvgParallelism(); got != 11.0/3.0 {
		t.Fatalf("avg parallelism = %v", got)
	}
	if p.MaxWidth() != 5 {
		t.Fatalf("max width = %d", p.MaxWidth())
	}
	if w := p.Widths(); len(w) != 3 || w[1] != 5 {
		t.Fatalf("widths = %v", w)
	}
	if p.Level(2).Kind != Chain {
		t.Fatalf("level 2 kind = %v", p.Level(2).Kind)
	}
}

func TestConstantProfile(t *testing.T) {
	p := Constant(8, 5)
	if p.Work() != 40 || p.CriticalPathLen() != 5 {
		t.Fatalf("work=%d cpl=%d", p.Work(), p.CriticalPathLen())
	}
	if p.AvgParallelism() != 8 {
		t.Fatalf("avg = %v", p.AvgParallelism())
	}
	if p.Level(0).Kind != Sync || p.Level(1).Kind != Chain {
		t.Fatal("constant profile kinds wrong")
	}
}

func TestSerialProfile(t *testing.T) {
	p := Serial(7)
	if p.Work() != 7 || p.CriticalPathLen() != 7 || p.AvgParallelism() != 1 {
		t.Fatalf("serial profile wrong: %d %d", p.Work(), p.CriticalPathLen())
	}
}

func TestConcat(t *testing.T) {
	p := Concat(Serial(2), Constant(3, 2))
	if p.Work() != 8 || p.CriticalPathLen() != 4 {
		t.Fatalf("concat: work=%d cpl=%d", p.Work(), p.CriticalPathLen())
	}
	// First level of the appended profile must have been forced to Sync.
	if p.Level(2).Kind != Sync {
		t.Fatal("concat should force join to Sync")
	}
}

func TestBuilderPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Constant":    func() { Constant(0, 1) },
		"Serial":      func() { Serial(0) },
		"Concat":      func() { Concat() },
		"MustProfile": func() { MustProfile(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// runToCompletion drives an instance with a fixed allotment and returns the
// number of steps taken and total completions.
func runToCompletion(t *testing.T, inst Instance, p int, order Order) (steps int, total int64) {
	t.Helper()
	var buf []LevelCount
	for !inst.Done() {
		var n int
		buf = buf[:0]
		n, buf = inst.Step(p, order, buf)
		if n == 0 {
			t.Fatalf("no progress at step %d (order %v)", steps, order)
		}
		total += int64(n)
		steps++
		if steps > 1<<22 {
			t.Fatal("runaway execution")
		}
	}
	return steps, total
}

func TestRunBreadthFirstUnlimited(t *testing.T) {
	// With p >= max width, BF completes one level per step: runtime = T∞.
	p := Constant(5, 3)
	r := NewRun(p)
	steps, total := runToCompletion(t, r, 25, BreadthFirst)
	if steps != 3 {
		t.Fatalf("steps = %d, want 3", steps)
	}
	if total != p.Work() {
		t.Fatalf("total = %d, want %d", total, p.Work())
	}
}

func TestRunBreadthFirstLimited(t *testing.T) {
	// Width 5, height 2, p=3: greedy bound gives ceil(10/3) = 4 steps and the
	// BF schedule achieves it (pipelining into level 1).
	r := NewRun(Constant(5, 2))
	steps, _ := runToCompletion(t, r, 3, BreadthFirst)
	if steps != 4 {
		t.Fatalf("steps = %d, want 4", steps)
	}
}

func TestRunNoWithinStepChaining(t *testing.T) {
	// Serial chain: even with many processors, only one task per step.
	r := NewRun(Serial(6))
	steps, _ := runToCompletion(t, r, 100, BreadthFirst)
	if steps != 6 {
		t.Fatalf("steps = %d, want 6", steps)
	}
}

func TestRunSyncBarrier(t *testing.T) {
	// Level-synchronized profile: a wide level cannot start until the
	// previous narrow level fully completes.
	p := FromWidths([]int{3, 6})
	r := NewRun(p)
	var buf []LevelCount
	n, buf := r.Step(2, BreadthFirst, buf[:0])
	if n != 2 {
		t.Fatalf("step1 completed %d", n)
	}
	// Level 0 has one task left; level 1 must stay untouched.
	n, buf = r.Step(10, BreadthFirst, buf[:0])
	if n != 1 {
		t.Fatalf("step2 completed %d, want 1 (sync barrier)", n)
	}
	n, _ = r.Step(10, BreadthFirst, buf[:0])
	if n != 6 {
		t.Fatalf("step3 completed %d, want 6", n)
	}
	if !r.Done() {
		t.Fatal("should be done")
	}
}

func TestRunChainSpillover(t *testing.T) {
	// Chain levels allow starting level l+1 tasks whose chain finished
	// earlier, even while level l is incomplete — the fractional-level
	// behaviour of Figure 2.
	p := Constant(5, 3)
	r := NewRun(p)
	var buf []LevelCount
	n, buf := r.Step(3, BreadthFirst, buf[:0])
	if n != 3 {
		t.Fatalf("step1: %d", n)
	}
	// Step 2: 2 remaining at level 0, then 3 ready at level 1 (chains done
	// in step 1); budget 4 → 2 + 2.
	buf = buf[:0]
	n, buf = r.Step(4, BreadthFirst, buf)
	if n != 4 {
		t.Fatalf("step2: %d", n)
	}
	want := []LevelCount{{Level: 0, Count: 2}, {Level: 1, Count: 2}}
	if len(buf) != 2 || buf[0] != want[0] || buf[1] != want[1] {
		t.Fatalf("step2 byLevel = %v, want %v", buf, want)
	}
}

func TestRunStepOnFinished(t *testing.T) {
	r := NewRun(Serial(1))
	runToCompletion(t, r, 1, BreadthFirst)
	if n, _ := r.Step(5, BreadthFirst, nil); n != 0 {
		t.Fatalf("step on finished job completed %d", n)
	}
}

func TestRunZeroProcessors(t *testing.T) {
	r := NewRun(Serial(2))
	if n, _ := r.Step(0, BreadthFirst, nil); n != 0 {
		t.Fatal("zero processors should complete nothing")
	}
	if n, _ := r.Step(-1, BreadthFirst, nil); n != 0 {
		t.Fatal("negative processors should complete nothing")
	}
}

func TestRunReset(t *testing.T) {
	p := Constant(4, 4)
	r := NewRun(p)
	runToCompletion(t, r, 2, BreadthFirst)
	r.Reset()
	if r.Done() || r.Remaining() != p.Work() {
		t.Fatal("reset did not rewind")
	}
	steps, total := runToCompletion(t, r, 2, BreadthFirst)
	if total != p.Work() {
		t.Fatalf("after reset total = %d", total)
	}
	if steps != 8 { // 16 tasks / 2 processors, perfectly pipelined
		t.Fatalf("after reset steps = %d", steps)
	}
}

func TestRunDepthFirstStillCompletes(t *testing.T) {
	p := Constant(3, 4)
	r := NewRun(p)
	_, total := runToCompletion(t, r, 2, DepthFirst)
	if total != p.Work() {
		t.Fatalf("DF total = %d", total)
	}
}

func TestRunDepthFirstSlowerThanBreadthFirst(t *testing.T) {
	// DF starves low levels and wastes slots; BF is never worse here.
	p := Constant(3, 40)
	bf := NewRun(p)
	df := NewRun(p)
	bfSteps, _ := runToCompletion(t, bf, 2, BreadthFirst)
	dfSteps, _ := runToCompletion(t, df, 2, DepthFirst)
	if dfSteps < bfSteps {
		t.Fatalf("DF (%d steps) beat BF (%d steps)", dfSteps, bfSteps)
	}
}

func TestRunFIFOMatchesBFForProfiles(t *testing.T) {
	p := Constant(5, 5)
	a := NewRun(p)
	b := NewRun(p)
	sa, _ := runToCompletion(t, a, 3, FIFO)
	sb, _ := runToCompletion(t, b, 3, BreadthFirst)
	if sa != sb {
		t.Fatalf("FIFO %d steps, BF %d steps", sa, sb)
	}
}

func TestRunConservation(t *testing.T) {
	// Total completions across any schedule equals the work, and per-level
	// completions never exceed level widths.
	p := MustProfile([]Level{
		{Width: 1, Kind: Sync},
		{Width: 7, Kind: Sync},
		{Width: 7, Kind: Chain},
		{Width: 7, Kind: Chain},
		{Width: 2, Kind: Sync},
	})
	for _, order := range []Order{BreadthFirst, DepthFirst} {
		r := NewRun(p)
		perLevel := make([]int, p.CriticalPathLen())
		var buf []LevelCount
		var total int64
		for !r.Done() {
			var n int
			buf = buf[:0]
			n, buf = r.Step(3, order, buf)
			sum := 0
			for _, lc := range buf {
				perLevel[lc.Level] += lc.Count
				sum += lc.Count
			}
			if sum != n {
				t.Fatalf("byLevel sum %d != completed %d", sum, n)
			}
			total += int64(n)
		}
		if total != p.Work() {
			t.Fatalf("%v: total %d != work %d", order, total, p.Work())
		}
		for l, c := range perLevel {
			if c != p.Level(l).Width {
				t.Fatalf("%v: level %d completions %d != width %d", order, l, c, p.Level(l).Width)
			}
		}
	}
}

func TestOrderAndKindStrings(t *testing.T) {
	if BreadthFirst.String() != "breadth-first" || DepthFirst.String() != "depth-first" ||
		FIFO.String() != "fifo" || Order(99).String() == "" {
		t.Fatal("Order.String broken")
	}
	if Sync.String() != "sync" || Chain.String() != "chain" || LevelKind(9).String() == "" {
		t.Fatal("LevelKind.String broken")
	}
}

func TestGreedyCompletionBound(t *testing.T) {
	// Graham/Brent: greedy with p processors finishes in ≤ T1/p + T∞ steps.
	cases := []*Profile{
		Constant(10, 20),
		Serial(15),
		FromWidths([]int{1, 9, 1, 9, 1, 9}),
		Concat(Serial(3), Constant(6, 4), Serial(2)),
	}
	for _, p := range cases {
		for _, procs := range []int{1, 2, 3, 7, 100} {
			r := NewRun(p)
			steps, _ := runToCompletion(t, r, procs, BreadthFirst)
			bound := float64(p.Work())/float64(procs) + float64(p.CriticalPathLen())
			if float64(steps) > bound {
				t.Errorf("p=%d procs=%d: steps %d > greedy bound %v", p.Work(), procs, steps, bound)
			}
		}
	}
}

func BenchmarkProfileStepBF(b *testing.B) {
	p := Constant(64, 100000)
	r := NewRun(p)
	var buf []LevelCount
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Done() {
			r.Reset()
		}
		buf = buf[:0]
		_, buf = r.Step(48, BreadthFirst, buf)
	}
}

func BenchmarkProfileStepDF(b *testing.B) {
	p := Constant(64, 100000)
	r := NewRun(p)
	var buf []LevelCount
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Done() {
			r.Reset()
		}
		buf = buf[:0]
		_, buf = r.Step(48, DepthFirst, buf)
	}
}

// TestProfileSegments pins the run-length representation: a profile holds
// one segment per maximal run of equal levels, so every way of building the
// same levels gives DeepEqual profiles, and Level finds each level by
// binary search.
func TestProfileSegments(t *testing.T) {
	levels := []Level{
		{Width: 1, Kind: Sync}, {Width: 1, Kind: Sync}, {Width: 1, Kind: Sync},
		{Width: 4, Kind: Sync}, {Width: 4, Kind: Chain}, {Width: 4, Kind: Chain},
		{Width: 4, Kind: Sync}, {Width: 4, Kind: Sync},
		{Width: 1, Kind: Sync},
	}
	p := MustProfile(levels)
	want := []Segment{
		{Level{Width: 1, Kind: Sync}, 3},
		{Level{Width: 4, Kind: Sync}, 1},
		{Level{Width: 4, Kind: Chain}, 2},
		{Level{Width: 4, Kind: Sync}, 2},
		{Level{Width: 1, Kind: Sync}, 1},
	}
	if got := p.Segments(); !reflect.DeepEqual(got, want) {
		t.Fatalf("segments = %v, want %v", got, want)
	}
	split := []Segment{
		{Level{Width: 1, Kind: Sync}, 1}, {Level{Width: 1, Kind: Sync}, 2},
		{Level{Width: 4, Kind: Sync}, 1}, {Level{Width: 4, Kind: Chain}, 1},
		{Level{Width: 4, Kind: Chain}, 1}, {Level{Width: 4, Kind: Sync}, 2},
		{Level{Width: 1, Kind: Sync}, 1},
	}
	for name, q := range map[string]*Profile{
		"segments": must(NewProfileSegments(split)),
		"concat":   Concat(Serial(3), Constant(4, 3), FromWidths([]int{4, 4, 1})),
	} {
		if !reflect.DeepEqual(q, p) {
			t.Errorf("%s: %+v, want %+v", name, q, p)
		}
	}
	for i, l := range levels {
		if got := p.Level(i); got != l {
			t.Errorf("Level(%d) = %v, want %v", i, got, l)
		}
	}
	if p.Work() != 24 || p.CriticalPathLen() != 9 || !reflect.DeepEqual(p.Widths(), []int{1, 1, 1, 4, 4, 4, 4, 4, 1}) {
		t.Fatalf("work %d, levels %d, widths %v", p.Work(), p.CriticalPathLen(), p.Widths())
	}
	if got := len(Constant(3, 1_000_000).Segments()); got != 2 {
		t.Fatalf("a constant job has %d segments, want 2", got)
	}
	for _, i := range []int{-1, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Level(%d) did not panic", i)
				}
			}()
			p.Level(i)
		}()
	}
}

func TestNewProfileSegmentsValidation(t *testing.T) {
	big := int(^uint(0) >> 2)
	for _, c := range []struct {
		name string
		segs []Segment
		ok   bool
	}{
		{"empty", nil, false},
		{"zero count", []Segment{{Level{Width: 2, Kind: Sync}, 0}}, false},
		{"unknown kind", []Segment{{Level{Width: 2, Kind: Sync}, 1}, {Level{Width: 2, Kind: 7}, 1}}, false},
		{"chain first", []Segment{{Level{Width: 2, Kind: Chain}, 3}}, false},
		{"chain width mismatch", []Segment{{Level{Width: 2, Kind: Sync}, 1}, {Level{Width: 3, Kind: Chain}, 4}}, false},
		{"work overflow", []Segment{{Level{Width: 4, Kind: Sync}, big}}, false},
		{"level overflow", []Segment{{Level{Width: 1, Kind: Sync}, big}, {Level{Width: 1, Kind: Sync}, big}, {Level{Width: 1, Kind: Sync}, big}}, false},
		{"long", []Segment{{Level{Width: 1, Kind: Sync}, big}, {Level{Width: 1, Kind: Chain}, big}}, true},
	} {
		_, err := NewProfileSegments(c.segs)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestAddOnesMatchesSequentialSums pins addOnes to k one-at-a-time float
// additions of 1.0, bit for bit, from fractional starts, starts on and
// next to powers of two, and starts at and past 2^53.
func TestAddOnesMatchesSequentialSums(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 1))
	starts := []float64{0, 0.1, 1.0 / 3, 0.5, 1, 1.5, 3, 4 - 0x1p-50, 1 << 20, 1<<52 - 0.5, 1 << 53, 1<<53 + 2, 1<<54 + 4}
	for i := 0; i < 200; i++ {
		starts = append(starts, rng.Float64(), float64(rng.IntN(1<<12))+rng.Float64(), float64(rng.IntN(9))/float64(1+rng.IntN(12)))
	}
	for _, x := range starts {
		for _, k := range []int{0, 1, 2, 3, 7, 64, 1000, 4097, 100_000} {
			want := x
			for j := 0; j < k; j++ {
				want++
			}
			if got := addOnes(x, k); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("addOnes(%v, %d) = %v, want %v", x, k, got, want)
			}
		}
	}
}
