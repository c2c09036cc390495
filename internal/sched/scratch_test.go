package sched

import (
	"reflect"
	"testing"

	"abg/internal/job"
)

// TestRunQuantumScratchMatchesFresh: a single Scratch reused across
// heterogeneous jobs, orders, and allotments yields measurements
// bit-identical to fresh-scratch calls — the contract that lets the engine
// share one Scratch per step worker. Every case also runs with the
// *job.Run hidden behind stepwise, so breadth-first quanta exercise the
// scratch in the step loop and not only the closed form.
func TestRunQuantumScratchMatchesFresh(t *testing.T) {
	profiles := []*job.Profile{
		job.Constant(8, 40),
		job.Serial(30),
		job.FromWidths([]int{1, 16, 2, 9, 9, 1, 5}),
		job.Concat(job.Constant(4, 10), job.Serial(5), job.Constant(2, 12)),
	}
	scheds := []Scheduler{BGreedy(), Greedy(), DepthGreedy()}
	allots := []int{1, 3, 7}
	var reused Scratch
	for _, hide := range []bool{false, true} {
		for pi, p := range profiles {
			for si, sc := range scheds {
				for _, a := range allots {
					var instA, instB job.Instance = job.NewRun(p), job.NewRun(p)
					if hide {
						instA, instB = stepwise{instA}, stepwise{instB}
					}
					for q := 0; !instA.Done(); q++ {
						want := RunQuantum(instA, sc, a, 9)
						var got QuantumStats
						RunQuantumScratch(&got, instB, sc, a, 9, &reused)
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("hidden %v profile %d sched %d a=%d quantum %d:\nfresh:  %+v\nreused: %+v",
								hide, pi, si, a, q, want, got)
						}
						if q > 10000 {
							t.Fatal("job did not finish")
						}
					}
					if !instB.Done() {
						t.Fatal("reused-scratch instance lags the fresh one")
					}
				}
			}
		}
	}
	// The all-zero invariant is what makes reuse correct: a dirty slot would
	// silently inflate a later job's CPL measurement.
	for l, c := range reused.levelDone {
		if c != 0 {
			t.Fatalf("scratch levelDone[%d] = %d after use, want 0", l, c)
		}
	}
}

// TestRunQuantumScratchZeroLength mirrors the old guard: non-positive
// quantum lengths execute nothing.
func TestRunQuantumScratchZeroLength(t *testing.T) {
	var scr Scratch
	var st QuantumStats
	RunQuantumScratch(&st, job.NewRun(job.Constant(2, 2)), BGreedy(), 2, 0, &scr)
	if st.Steps != 0 || st.Work != 0 || st.CPL != 0 {
		t.Fatalf("zero-length quantum executed work: %+v", st)
	}
}

func BenchmarkRunQuantumScratch(b *testing.B) {
	p := job.Constant(8, 1<<20)
	inst := job.NewRun(p)
	var scr Scratch
	var st QuantumStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if inst.Done() {
			b.StopTimer()
			inst.Reset()
			b.StartTimer()
		}
		RunQuantumScratch(&st, inst, BGreedy(), 8, 100, &scr)
	}
}
