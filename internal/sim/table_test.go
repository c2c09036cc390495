package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"abg/internal/alloc"
	"abg/internal/obs"
)

// subscriberSubmitSpec is the i-th job the subscriber test submits:
// constant widths and lengths cycled so jobs finish at different boundaries.
func subscriberSubmitSpec(i int, release int64) JobSpec {
	return constSpec(fmt.Sprintf("x%d", i), 1+i%7, 60+37*(i%5), release)
}

// TestSubmitFromSubscriberMatchesSubmitBetweenSteps: an obs subscriber that
// submits a job on every EvAllotment — while Step's reduce loop is working
// on the job the event describes — must leave the engine exactly as
// submitting the same jobs right after that Step returns does. Submit must
// therefore never move a record Step holds.
func TestSubmitFromSubscriberMatchesSubmitBetweenSteps(t *testing.T) {
	const extra = 600
	cfg := MultiConfig{P: 4096, L: 50, Allocator: alloc.DynamicEquiPartition{}}

	// Engine a: the subscriber submits while a steps.
	bus := obs.NewBus()
	cfg.Obs = bus
	a, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var submitted []int64 // releases, in submission order
	bus.Subscribe(obs.SubscriberFunc(func(ev obs.Event) {
		if ev.Kind != obs.EvAllotment || len(submitted) == extra {
			return
		}
		if _, err := a.Submit(subscriberSubmitSpec(len(submitted), ev.Time)); err != nil {
			t.Error(err)
		}
		submitted = append(submitted, ev.Time)
	}))

	// Engine b: the same jobs, submitted after the Step during which a's
	// subscriber submitted them.
	cfg.Obs = nil
	b, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{a, b} {
		if _, err := e.Submit(constSpec("first", 3, 200, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for !a.Done() || !b.Done() {
		before := len(submitted)
		if _, err := a.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Step(); err != nil {
			t.Fatal(err)
		}
		for i := before; i < len(submitted); i++ {
			if _, err := b.Submit(subscriberSubmitSpec(i, submitted[i])); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(submitted) != extra {
		t.Fatalf("subscriber submitted %d jobs, want %d", len(submitted), extra)
	}
	ra, rb := a.Result(), b.Result()
	if len(ra.Jobs) != extra+1 {
		t.Fatalf("%d outcomes, want %d", len(ra.Jobs), extra+1)
	}
	diff := 0
	for i := range ra.Jobs {
		if !reflect.DeepEqual(ra.Jobs[i], rb.Jobs[i]) {
			diff++
		}
	}
	if diff > 0 || !reflect.DeepEqual(ra, rb) {
		t.Errorf("%d of %d outcomes differ from submitting between Steps", diff, len(ra.Jobs))
	}
	sa := append([]JobStatus(nil), a.Statuses()...)
	sb := b.Statuses()
	diff = 0
	for i := range sa {
		if !reflect.DeepEqual(sa[i], sb[i]) {
			diff++
		}
	}
	if diff > 0 {
		t.Errorf("%d of %d statuses differ from submitting between Steps", diff, len(sa))
	}
}

// pageEdgeSizes are job counts around the job tables' block edges: empty,
// one job, a page less one, a page, a page and one, and several pages;
// then either side of each head block's first record (16, 32, 64, 128).
var pageEdgeSizes = []int{0, 1, pageLen - 1, pageLen, pageLen + 1, 3*pageLen + 7,
	15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129}

// TestTableRecordsNeverMove pushes records across every head block and
// into the pages, and requires each record to keep its address and value
// through the later pushes, and appendTo to return them in order.
func TestTableRecordsNeverMove(t *testing.T) {
	var tb table[int]
	var addrs []*int
	for i := range 3*pageLen + 5 {
		r := tb.push()
		*r = i
		addrs = append(addrs, r)
	}
	for i, r := range addrs {
		if tb.at(i) != r || *r != i {
			t.Fatalf("record %d moved or changed: at %p holds %d, pushed at %p", i, tb.at(i), *tb.at(i), r)
		}
	}
	all := tb.appendTo(nil)
	for i, v := range all {
		if v != i {
			t.Fatalf("appendTo()[%d] = %d", i, v)
		}
	}
	if len(all) != tb.len() {
		t.Fatalf("appendTo returned %d records, table holds %d", len(all), tb.len())
	}
}

// pageEdgeSpec is job i of the page-edge tests. Names, widths, lengths and
// releases all vary with i, so a record read from the wrong slot shows.
func pageEdgeSpec(i int) JobSpec {
	return constSpec(fmt.Sprintf("p%d", i), 1+i%5, 40+13*(i%9), int64(50*(i%4)))
}

func pageEdgeConfig() MultiConfig {
	return MultiConfig{P: 512, L: 50, Allocator: alloc.DynamicEquiPartition{}, TimelineRing: 4}
}

// checkJobViews requires Result, Statuses, JobStatus and Timeline to agree
// with each other and with job i's spec for every id, and to reject the
// ids just outside [0, n).
func checkJobViews(t *testing.T, eng *Engine, n int) {
	t.Helper()
	res := eng.Result()
	if n == 0 && res.Jobs != nil {
		t.Fatalf("Result().Jobs = %v with no jobs, want nil", res.Jobs)
	}
	sts := eng.Statuses()
	if len(res.Jobs) != n || len(sts) != n || eng.NumJobs() != n {
		t.Fatalf("%d outcomes, %d statuses, NumJobs %d; want %d", len(res.Jobs), len(sts), eng.NumJobs(), n)
	}
	aggregate := 0
	for i := range n {
		spec, j, st := pageEdgeSpec(i), res.Jobs[i], sts[i]
		if j.Name != spec.Name || j.Release != spec.Release || j.Work != spec.Inst.TotalWork() {
			t.Fatalf("outcome %d = %+v, want job %s released at %d", i, j, spec.Name, spec.Release)
		}
		if st.ID != i || st.Name != j.Name || st.NumQuanta != j.NumQuanta || st.Waste != j.Waste {
			t.Fatalf("status %d = %+v disagrees with outcome %+v", i, st, j)
		}
		if one, ok := eng.JobStatus(i); !ok || one != st {
			t.Fatalf("JobStatus(%d) = %+v, %v; Statuses has %+v", i, one, ok, st)
		}
		samples, _, ok := eng.Timeline(i)
		if !ok {
			t.Fatalf("Timeline(%d) unknown", i)
		}
		if st.NumQuanta > 0 && len(samples) == 0 {
			t.Fatalf("job %d ran %d quanta but its timeline is empty", i, st.NumQuanta)
		}
		if k := len(samples); k > 0 && samples[k-1].Allotment > 0 && samples[k-1].Quantum != st.NumQuanta {
			t.Fatalf("job %d: last sample is quantum %d, status has %d", i, samples[k-1].Quantum, st.NumQuanta)
		}
		if st.State == JobRunning {
			aggregate += st.IntRequest
		}
	}
	if got := eng.AggregateRequest(); got != aggregate {
		t.Fatalf("AggregateRequest = %d, running statuses sum to %d", got, aggregate)
	}
	for _, id := range []int{-1, n} {
		if _, ok := eng.JobStatus(id); ok {
			t.Fatalf("JobStatus(%d) ok with %d jobs", id, n)
		}
		if _, _, ok := eng.Timeline(id); ok {
			t.Fatalf("Timeline(%d) ok with %d jobs", id, n)
		}
	}
}

// TestJobTablePageEdges checks every per-job view at the page edges, mid-run
// and at the end, and a MarshalBinary → RestoreEngine round trip mid-run:
// the restored engine holds the same jobs, writes the same bytes, and
// finishes with the same result.
func TestJobTablePageEdges(t *testing.T) {
	for _, n := range pageEdgeSizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			cfg := pageEdgeConfig()
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range n {
				if id, err := eng.Submit(pageEdgeSpec(i)); err != nil || id != i {
					t.Fatalf("Submit(%d) = %d, %v", i, id, err)
				}
			}
			checkJobViews(t, eng, n)
			for range 3 {
				if _, err := eng.Step(); err != nil {
					t.Fatal(err)
				}
			}
			checkJobViews(t, eng, n)

			blob, err := eng.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			specs := make([]JobSpec, n)
			for i := range specs {
				specs[i] = pageEdgeSpec(i)
			}
			restored, err := RestoreEngine(cfg, blob, specs)
			if err != nil {
				t.Fatal(err)
			}
			if again, err := restored.MarshalBinary(); err != nil || !bytes.Equal(again, blob) {
				t.Fatalf("restored engine's snapshot differs (err %v)", err)
			}
			if !reflect.DeepEqual(restored.Result(), eng.Result()) {
				t.Fatal("restored result differs")
			}
			if !reflect.DeepEqual(restored.Statuses(), eng.Statuses()) {
				t.Fatal("restored statuses differ")
			}
			if !reflect.DeepEqual(restored.ResumeStates(), eng.ResumeStates()) {
				t.Fatal("restored resume states differ")
			}
			for _, e := range []*Engine{eng, restored} {
				for !e.Done() {
					if _, err := e.Step(); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkJobViews(t, eng, n)
			if !reflect.DeepEqual(restored.Result(), eng.Result()) {
				t.Fatal("restored engine finished with a different result")
			}
			if got := eng.FirstUnfinished(0); got != n {
				t.Fatalf("FirstUnfinished(0) = %d after the run, want %d", got, n)
			}
		})
	}
}
