package server

import (
	"reflect"
	"testing"

	"abg/internal/obs"
)

// TestHistoryBoundedByCompletedJobs: the lifecycle history keeps every
// unfinished job's entries and those of the maxDoneHistories most recently
// completed jobs, so its size does not grow with the jobs a daemon serves.
func TestHistoryBoundedByCompletedJobs(t *testing.T) {
	h := newHistory(256)
	// Job 0 is admitted first and never completes.
	h.OnEvent(obs.Event{Kind: obs.EvJobAdmitted, Job: 0})
	h.OnEvent(obs.Event{Kind: obs.EvDeprived, Job: 0, Quantum: 1, Time: 10})
	lifecycle := func(id int) []HistoryEntry {
		t0 := int64(100 * id)
		return []HistoryEntry{
			{Time: t0, Event: "job_admitted"},
			{Quantum: 1, Time: t0, Event: "deprived"},
			{Quantum: 2, Time: t0 + 50, Event: "satisfied"},
			{Time: t0 + 80, Event: "job_completed"},
		}
	}
	const total = maxDoneHistories + 1000
	for id := 1; id <= total; id++ {
		t0 := int64(100 * id)
		h.OnEvent(obs.Event{Kind: obs.EvJobAdmitted, Job: id, Time: t0})
		h.OnEvent(obs.Event{Kind: obs.EvDeprived, Job: id, Quantum: 1, Time: t0})
		h.OnEvent(obs.Event{Kind: obs.EvSatisfied, Job: id, Quantum: 2, Time: t0 + 50})
		h.OnEvent(obs.Event{Kind: obs.EvJobCompleted, Job: id, Time: t0 + 80})
	}

	if n := len(h.byJob); n != maxDoneHistories+1 {
		t.Fatalf("history holds %d jobs after %d completions, want %d (the running job plus the newest %d completed)",
			n, total, maxDoneHistories+1, maxDoneHistories)
	}
	if got, want := h.get(total), lifecycle(total); !reflect.DeepEqual(got, want) {
		t.Fatalf("newest completed job's history = %+v, want %+v", got, want)
	}
	oldestKept := total - maxDoneHistories + 1
	if got, want := h.get(oldestKept), lifecycle(oldestKept); !reflect.DeepEqual(got, want) {
		t.Fatalf("oldest retained job's history = %+v, want %+v", got, want)
	}
	if got := h.get(oldestKept - 1); len(got) != 0 {
		t.Fatalf("job %d outlived the bound: %+v", oldestKept-1, got)
	}
	want := []HistoryEntry{{Event: "job_admitted"}, {Quantum: 1, Time: 10, Event: "deprived"}}
	if got := h.get(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("running job's history = %+v, want %+v", got, want)
	}
}
