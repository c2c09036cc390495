package job

import (
	"reflect"
	"testing"

	"abg/internal/persist"
)

// stateTestProfile builds a small fork-join profile with both level kinds.
func stateTestProfile(t *testing.T) *Profile {
	t.Helper()
	return MustProfile([]Level{
		{Kind: Sync, Width: 1},
		{Kind: Chain, Width: 1},
		{Kind: Sync, Width: 8},
		{Kind: Chain, Width: 8},
		{Kind: Chain, Width: 8},
		{Kind: Sync, Width: 2},
	})
}

// TestRunStateRoundTrip pins the crash-recovery contract of the execution
// cursor: capture mid-run, restore onto a fresh Run of the same profile,
// and stepping both onward yields identical completions and final state.
func TestRunStateRoundTrip(t *testing.T) {
	p := stateTestProfile(t)
	for cut := 0; cut < 12; cut++ {
		orig := NewRun(p)
		for s := 0; s < cut && !orig.Done(); s++ {
			orig.Step(3, BreadthFirst, nil)
		}
		blob, err := orig.MarshalState()
		if err != nil {
			t.Fatalf("cut %d: marshal: %v", cut, err)
		}
		restored := NewRun(p)
		if err := restored.UnmarshalState(blob); err != nil {
			t.Fatalf("cut %d: unmarshal: %v", cut, err)
		}
		if !reflect.DeepEqual(orig, restored) {
			t.Fatalf("cut %d: restored run differs:\n got %+v\nwant %+v", cut, restored, orig)
		}
		for !orig.Done() {
			n1, _ := orig.Step(3, BreadthFirst, nil)
			n2, _ := restored.Step(3, BreadthFirst, nil)
			if n1 != n2 {
				t.Fatalf("cut %d: step completions diverge: %d != %d", cut, n2, n1)
			}
		}
		if !restored.Done() || restored.Remaining() != 0 {
			t.Fatalf("cut %d: restored run did not finish with the original", cut)
		}
	}
}

// TestRunStateRejectsMismatch pins that a cursor cannot land on the wrong
// profile or carry implausible values.
func TestRunStateRejectsMismatch(t *testing.T) {
	p := stateTestProfile(t)
	other := MustProfile([]Level{{Kind: Sync, Width: 4}})
	r := NewRun(p)
	r.Step(4, BreadthFirst, nil)
	blob, err := r.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewRun(other).UnmarshalState(blob); err == nil {
		t.Error("cursor accepted by a different profile")
	}
	if err := NewRun(p).UnmarshalState(nil); err == nil {
		t.Error("accepted empty cursor")
	}
	if err := NewRun(p).UnmarshalState(blob[:len(blob)/2]); err == nil {
		t.Error("accepted truncated cursor")
	}
	mut := append([]byte{}, blob...)
	mut[0] = 99
	if err := NewRun(p).UnmarshalState(mut); err == nil {
		t.Error("accepted wrong tag")
	}
}

// TestRunStateRejectsInconsistentCursor pins that UnmarshalState refuses a
// cursor whose derived fields disagree with its per-level counts, which
// Step and StepsBreadthFirst would otherwise run differently, and that a
// refused cursor leaves the run reset to its start.
func TestRunStateRejectsInconsistentCursor(t *testing.T) {
	p := stateTestProfile(t) // widths 1, 1, 8, 8, 8, 2
	encode := func(completed []int, frontier, head int, done int64) []byte {
		e := persist.Enc{}
		e.Int(len(completed))
		for _, c := range completed {
			e.Int(c)
		}
		e.Int(frontier)
		e.Int(head)
		e.Varint(done)
		return append([]byte{runStateTag}, e.Bytes()...)
	}
	for _, tc := range []struct {
		name      string
		completed []int
		frontier  int
		head      int
		done      int64
		ok        bool
	}{
		{"consistent", []int{1, 1, 5, 0, 0, 0}, 2, 2, 7, true},
		{"consistent fresh", []int{0, 0, 0, 0, 0, 0}, 0, -1, 0, true},
		{"consistent finished", []int{1, 1, 8, 8, 8, 2}, 6, 5, 28, true},
		{"consistent depth-first", []int{1, 1, 5, 3, 1, 0}, 2, 4, 11, true},
		{"done is not the sum", []int{1, 1, 5, 0, 0, 0}, 2, 2, 6, false},
		{"frontier past an incomplete level", []int{1, 1, 5, 0, 0, 0}, 3, 2, 7, false},
		{"head below the highest completion", []int{1, 1, 5, 3, 0, 0}, 2, 2, 10, false},
		{"head above the highest completion", []int{1, 1, 5, 0, 0, 0}, 2, 3, 7, false},
		{"frontier at a complete level", []int{1, 1, 5, 0, 0, 0}, 1, 2, 7, false},
		{"head set with no completions", []int{0, 0, 0, 0, 0, 0}, 0, 0, 0, false},
	} {
		r := NewRun(p)
		r.Step(3, DepthFirst, nil)
		err := r.UnmarshalState(encode(tc.completed, tc.frontier, tc.head, tc.done))
		if (err == nil) != tc.ok {
			t.Errorf("%s: UnmarshalState error = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil && !reflect.DeepEqual(r, NewRun(p)) {
			t.Errorf("%s: refused cursor left the run at %+v, want it reset", tc.name, r)
		}
	}
}
