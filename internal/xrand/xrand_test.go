package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs out of 100", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed generator looks degenerate: %d distinct of 100", len(seen))
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(5, 10)
		if v < 5 || v > 10 {
			t.Fatalf("IntRange(5,10) = %d", v)
		}
	}
	if got := r.IntRange(3, 3); got != 3 {
		t.Fatalf("IntRange(3,3) = %d", got)
	}
}

func TestIntRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for IntRange(2,1)")
		}
	}()
	New(1).IntRange(2, 1)
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(19)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %v too far from 1", mean)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(31)
	child := parent.Split()
	// Child must be deterministic given parent state.
	parent2 := New(31)
	child2 := parent2.Split()
	for i := 0; i < 100; i++ {
		if child.Uint64() != child2.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestFloatRange(t *testing.T) {
	r := New(37)
	for i := 0; i < 1000; i++ {
		v := r.FloatRange(2.5, 7.5)
		if v < 2.5 || v >= 7.5 {
			t.Fatalf("FloatRange out of bounds: %v", v)
		}
	}
}

func TestUint64Uniformity(t *testing.T) {
	// Chi-squared-ish sanity check over 16 buckets of the top nibble.
	r := New(41)
	var buckets [16]int
	const n = 160000
	for i := 0; i < n; i++ {
		buckets[r.Uint64()>>60]++
	}
	expect := float64(n) / 16
	for i, c := range buckets {
		if math.Abs(float64(c)-expect) > expect*0.05 {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, expect)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000)
	}
	_ = sink
}
