package sim

import (
	"fmt"
	"testing"

	"abg/internal/alloc"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/sched"
)

// BenchmarkStepAfterHistory times one Step plus one AggregateRequest — a
// shard's work per quantum boundary — with 10 live jobs, after 0, 10k and
// 100k jobs have finished on the same engine. The engine walks only its
// waiting and live jobs, so the time per boundary should not grow with the
// jobs it has served.
func BenchmarkStepAfterHistory(b *testing.B) {
	const live = 10
	oneQuantum := job.Constant(1, 1)
	endless := job.Constant(4, 1<<40) // outlasts any b.N at L = 100
	for _, done := range []int{0, 10_000, 100_000} {
		b.Run(fmt.Sprintf("done=%d", done), func(b *testing.B) {
			eng, err := NewEngine(MultiConfig{P: 100_000 + 8*live, L: 100,
				Allocator: alloc.DynamicEquiPartition{}, MaxQuanta: 1 << 40})
			if err != nil {
				b.Fatal(err)
			}
			submit := func(p *job.Profile) {
				if _, err := eng.Submit(JobSpec{Release: eng.Now(), Inst: job.NewRun(p),
					Policy: feedback.NewAControl(0.2), Sched: sched.BGreedy()}); err != nil {
					b.Fatal(err)
				}
			}
			for range done {
				submit(oneQuantum)
			}
			for !eng.Done() {
				if _, err := eng.Step(); err != nil {
					b.Fatal(err)
				}
			}
			for range live {
				submit(endless)
			}
			for range 5 { // admit them and let their requests settle
				if _, err := eng.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := eng.Step(); err != nil {
					b.Fatal(err)
				}
				if eng.AggregateRequest() < live {
					b.Fatal("live jobs left the engine")
				}
			}
		})
	}
}
