package job

import (
	"reflect"
	"testing"

	"abg/internal/persist"
)

// stateTestProfile builds a small fork-join profile with both level kinds.
func stateTestProfile(t testing.TB) *Profile {
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

// denseCursor encodes r's cursor in the dense layout (tag 20) that
// MarshalState wrote before the window layout: every level's count, then
// the frontier, the head and the task count.
func denseCursor(r *Run) []byte {
	e := persist.Enc{}
	n := r.CriticalPathLen()
	e.Int(n)
	frontier, head := n, -1
	for l := 0; l < n; l++ {
		c := r.CompletedAt(l)
		e.Int(c)
		if c < r.LevelWidth(l) && frontier == n {
			frontier = l
		}
		if c > 0 {
			head = l
		}
	}
	e.Int(frontier)
	e.Int(head)
	e.Varint(r.TotalWork() - r.Remaining())
	return append([]byte{runStateTag}, e.Bytes()...)
}

// TestRunStateDenseLayout pins that cursors journaled in the dense layout
// still restore: at every cut of a breadth-first and a depth-first run, the
// dense cursor restores to a run DeepEqual to the one the window layout
// restores (and to the original), and all three step identically to the
// end under a mix of orders.
func TestRunStateDenseLayout(t *testing.T) {
	p := Concat(stateTestProfile(t), Serial(3), Constant(5, 4))
	for _, order := range []Order{BreadthFirst, DepthFirst} {
		orig := NewRun(p)
		for cut := 0; ; cut++ {
			window, err := orig.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if window[0] != runWindowTag {
				t.Fatalf("MarshalState wrote tag %d, want %d", window[0], runWindowTag)
			}
			fromDense, fromWindow := NewRun(p), NewRun(p)
			if err := fromDense.UnmarshalState(denseCursor(orig)); err != nil {
				t.Fatalf("%v cut %d: dense cursor: %v", order, cut, err)
			}
			if err := fromWindow.UnmarshalState(window); err != nil {
				t.Fatalf("%v cut %d: window cursor: %v", order, cut, err)
			}
			if !reflect.DeepEqual(fromDense, fromWindow) || !reflect.DeepEqual(fromDense, orig) {
				t.Fatalf("%v cut %d: dense restore %+v, window restore %+v, original %+v",
					order, cut, fromDense, fromWindow, orig)
			}
			twin := NewRun(p)
			twin.UnmarshalState(window)
			for s := 0; !twin.Done(); s++ {
				o, procs := Order(s%3), 1+s%4
				n1, b1 := twin.Step(procs, o, nil)
				n2, b2 := fromDense.Step(procs, o, nil)
				if n1 != n2 || !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(twin, fromDense) {
					t.Fatalf("%v cut %d step %d: dense restore stepped %v, window restore %v", order, cut, s, b2, b1)
				}
			}
			if orig.Done() {
				break
			}
			orig.Step(3, order, nil)
		}
	}
}

// TestRunStateWindowRejects pins the window layout's checks: each cursor
// below is refused and leaves the run reset.
func TestRunStateWindowRejects(t *testing.T) {
	p := stateTestProfile(t) // widths 1, 1, 8, 8, 8, 2
	encode := func(vals ...int) []byte {
		e := persist.Enc{}
		for _, v := range vals {
			e.Int(v)
		}
		return append([]byte{runWindowTag}, e.Bytes()...)
	}
	ok := encode(6, 2, 5, 2, 3, 1)
	if err := NewRun(p).UnmarshalState(ok); err != nil {
		t.Fatalf("a depth-first cursor was refused: %v", err)
	}
	for name, blob := range map[string][]byte{
		"other profile":           encode(7, 2, 5, 0),
		"negative frontier":       encode(6, -1, 0, 0),
		"frontier past the end":   encode(6, 7, 0, 0),
		"complete frontier":       encode(6, 2, 8, 0),
		"negative frontier count": encode(6, 2, -1, 0),
		"finished with a count":   encode(6, 6, 1, 0),
		"finished with a window":  encode(6, 6, 0, 1, 1),
		"window past the end":     encode(6, 4, 5, 2, 1, 1),
		"window count too large":  encode(6, 2, 5, 1, 9),
		"window count negative":   encode(6, 2, 5, 2, -1, 1),
		"window trailing zero":    encode(6, 2, 5, 2, 3, 0),
		"truncated window":        encode(6, 2, 5, 2, 3),
		"trailing bytes":          append(encode(6, 2, 5, 0), 0),
	} {
		r := NewRun(p)
		r.Step(3, DepthFirst, nil)
		if err := r.UnmarshalState(blob); err == nil {
			t.Errorf("%s: cursor accepted", name)
		} else if !reflect.DeepEqual(r, NewRun(p)) {
			t.Errorf("%s: refused cursor left the run at %+v, want it reset", name, r)
		}
	}
}

// FuzzRunCursor feeds arbitrary bytes to UnmarshalState on a fixed profile.
// A cursor is either refused, leaving the run reset to its start, or
// accepted; an accepted one re-marshals to bytes that restore the same run,
// and the run still finishes within its work under breadth-first quanta
// (the closed form included) and depth-first steps.
// `go test -run '^$' -fuzz FuzzRunCursor ./internal/job/` explores further.
func FuzzRunCursor(f *testing.F) {
	p := Concat(stateTestProfile(f), Serial(2), Constant(3, 3))
	for _, order := range []Order{BreadthFirst, DepthFirst} {
		r := NewRun(p)
		for s := 0; s < 6; s++ {
			blob, _ := r.MarshalState()
			f.Add(blob)
			f.Add(denseCursor(r))
			r.Step(3, order, nil)
		}
	}
	f.Add([]byte{runWindowTag})
	f.Add([]byte{runStateTag, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewRun(p)
		r.Step(2, DepthFirst, nil)
		if err := r.UnmarshalState(data); err != nil {
			if !reflect.DeepEqual(r, NewRun(p)) {
				t.Fatalf("refused cursor (%v) left the run at %+v", err, r)
			}
			return
		}
		blob, err := r.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		again := NewRun(p)
		if err := again.UnmarshalState(blob); err != nil || !reflect.DeepEqual(again, r) {
			t.Fatalf("re-marshalled cursor restored to %+v (%v), want %+v", again, err, r)
		}
		for s := 0; !r.Done(); s++ {
			if s > int(p.Work()) {
				t.Fatalf("no finish within %d steps from an accepted cursor", p.Work())
			}
			if _, ok := r.StepsBreadthFirst(2, 3); !ok {
				r.Step(2, DepthFirst, nil)
			}
		}
	})
}
