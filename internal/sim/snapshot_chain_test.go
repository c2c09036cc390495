package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"abg/internal/fault"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/persist"
	"abg/internal/sched"
	"abg/internal/workload"
	"abg/internal/xrand"
)

// chainJobs is the size of the snapshot-chain job set. Job i is submitted
// before step chainGap·i and released at the boundary it is submitted on,
// so a delta chain sees the job count grow while earlier jobs run.
const (
	chainJobs = 12
	chainGap  = 2
)

// chainSpec builds job i of the chain job set afresh: a generated fork-join
// profile whose size varies with i (so jobs finish out of id order),
// alternating controllers, and the plan's control channel and restart hook.
func chainSpec(plan fault.Plan, i int) JobSpec {
	profile := workload.GenJob(xrand.New(uint64(3000+i)),
		workload.ScaledJobParams(4+5*(i%3), 50, 2+2*(i%4)))
	var pol feedback.Policy = feedback.NewAControl(0.2)
	sc := sched.BGreedy()
	if i%2 == 1 {
		pol, sc = feedback.NewAGreedy(2, 0.8), sched.Greedy()
	}
	sp := JobSpec{Name: fmt.Sprintf("c%d", i), Inst: job.NewRun(profile),
		Policy: plan.Policy(pol, i, nil), Sched: sc}
	if hook := plan.RestartHook(i); hook != nil {
		sp.Restart = &RestartPlan{At: hook,
			New: func() job.Instance { return job.NewRun(profile) }, Max: plan.MaxRestarts}
	}
	return sp
}

// chainSteps drives eng from step to the end of the chain schedule,
// submitting each job on its step, and calls after (if non-nil) following
// every executed step with the count of steps taken so far.
func chainSteps(t testing.TB, eng *Engine, plan fault.Plan, step int, after func(steps int)) {
	t.Helper()
	for ; ; step++ {
		if step%chainGap == 0 && step/chainGap < chainJobs {
			sp := chainSpec(plan, step/chainGap)
			sp.Release = eng.Now()
			if _, err := eng.Submit(sp); err != nil {
				t.Fatal(err)
			}
		}
		if eng.Done() && step >= chainGap*(chainJobs-1) {
			return
		}
		if step > DefaultMaxQuanta {
			t.Fatal("chain run did not terminate")
		}
		if _, err := eng.Step(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if after != nil {
			after(step + 1)
		}
	}
}

// chainTally counts the snapshot points that exercise the delta rules.
type chainTally struct {
	points     int // snapshot points checked
	lagging    int // from > 0 while a job below the newest one is unfinished
	outOfOrder int // a job finished while a lower id had not
	allDone    int // every job done (the next from is the job count)
}

// checkChainPoint appends a delta from *from to chain, folds it, and checks
// the fold against MarshalBinary byte for byte; then advances the
// watermark past the jobs done now.
func checkChainPoint(t *testing.T, eng *Engine, chain *[][]byte, from *int, tally *chainTally) []byte {
	t.Helper()
	delta, err := eng.MarshalDelta(*from)
	if err != nil {
		t.Fatal(err)
	}
	*chain = append(*chain, delta)
	full, err := eng.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	folded, _, err := FoldSnapshots(*chain)
	if err != nil {
		t.Fatalf("fold of %d blobs: %v", len(*chain), err)
	}
	if !bytes.Equal(folded, full) {
		t.Fatalf("fold of %d blobs (%d bytes) differs from MarshalBinary (%d bytes)",
			len(*chain), len(folded), len(full))
	}
	next := eng.FirstUnfinished(*from)
	tally.points++
	if *from > 0 && *from < eng.NumJobs() {
		tally.lagging++
	}
	for i := next + 1; i < eng.NumJobs(); i++ {
		if eng.states.at(i).done {
			tally.outOfOrder++
			break
		}
	}
	if next == eng.NumJobs() && next > 0 {
		tally.allDone++
	}
	*from = next
	return folded
}

// requireSameEngine fails unless got matches want on everything a service
// reads of an engine: Statuses, Result, Tally, ResumeStates and
// AggregateRequest.
func requireSameEngine(t testing.TB, what string, got, want *Engine) {
	t.Helper()
	if g, w := got.Statuses(), want.Statuses(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: statuses differ:\n got %+v\nwant %+v", what, g, w)
	}
	if g, w := got.Result(), want.Result(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: results differ:\n got %+v\nwant %+v", what, g, w)
	}
	if g, w := got.Tally(), want.Tally(); g != w {
		t.Fatalf("%s: tally %+v, want %+v", what, g, w)
	}
	if g, w := got.ResumeStates(), want.ResumeStates(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: resume states differ:\n got %+v\nwant %+v", what, g, w)
	}
	if g, w := got.AggregateRequest(), want.AggregateRequest(); g != w {
		t.Fatalf("%s: aggregate request %d, want %d", what, g, w)
	}
}

// TestSnapshotChainFoldsToFull writes a delta chain at cadences 1–7 over a
// run with mid-run submissions, fault-free and under restarts, capacity
// churn and a lossy (drop/delay/dup) control channel. At every snapshot
// point the fold of the deltas so far must equal MarshalBinary byte for
// byte, and an engine restored from the fold must match the original and
// run on to the uninterrupted reference result. The chain ends with a point where every
// job is done and one an idle boundary later, whose delta holds no job.
func TestSnapshotChainFoldsToFull(t *testing.T) {
	faulty, err := fault.ParseSpec(fullFaultSpec, 16)
	if err != nil {
		t.Fatal(err)
	}
	var total chainTally
	for _, pc := range []struct {
		name string
		plan fault.Plan
	}{{"fault-free", fault.Plan{}}, {"faults", faulty}} {
		ref, err := NewEngine(snapCfg(pc.plan))
		if err != nil {
			t.Fatal(err)
		}
		chainSteps(t, ref, pc.plan, 0, nil)
		refRes := ref.Result()
		if pc.name == "faults" {
			restarts := 0
			for _, j := range refRes.Jobs {
				restarts += j.Restarts
			}
			if restarts == 0 {
				t.Fatal("faulted reference run has no restart")
			}
		}
		for every := 1; every <= 7; every++ {
			t.Run(fmt.Sprintf("%s/every=%d", pc.name, every), func(t *testing.T) {
				eng, err := NewEngine(snapCfg(pc.plan))
				if err != nil {
					t.Fatal(err)
				}
				var chain [][]byte
				from := 0
				chainSteps(t, eng, pc.plan, 0, func(steps int) {
					if steps%every != 0 {
						return
					}
					folded := checkChainPoint(t, eng, &chain, &from, &total)
					// Restore the fold onto fresh specs (zero ones for the
					// done jobs at odd cadences) and finish the run.
					specs := make([]JobSpec, eng.NumJobs())
					for i := range specs {
						if every%2 == 0 || !eng.states.at(i).done {
							specs[i] = chainSpec(pc.plan, i)
						}
					}
					restored, err := RestoreEngine(snapCfg(pc.plan), folded, specs)
					if err != nil {
						t.Fatalf("step %d: restore the fold: %v", steps, err)
					}
					requireSameEngine(t, fmt.Sprintf("step %d: restored from the fold", steps), restored, eng)
					chainSteps(t, restored, pc.plan, steps, nil)
					if got := restored.Result(); !reflect.DeepEqual(got, refRes) {
						t.Fatalf("step %d: restored from the fold, the run diverges:\n got %+v\nwant %+v",
							steps, got, refRes)
					}
				})
				if got := eng.Result(); !reflect.DeepEqual(got, refRes) {
					t.Fatalf("snapshotting changed the run:\n got %+v\nwant %+v", got, refRes)
				}
				for range 2 { // every job done; then one idle boundary on
					checkChainPoint(t, eng, &chain, &from, &total)
					if _, err := eng.Step(); err != nil {
						t.Fatal(err)
					}
				}
				if from != chainJobs {
					t.Fatalf("watermark ends at %d, want %d", from, chainJobs)
				}
			})
		}
	}
	t.Logf("%+v", total)
	if total.lagging == 0 || total.outOfOrder == 0 || total.allDone == 0 {
		t.Fatalf("chains did not exercise the delta rules: %+v", total)
	}
}

// foldBlobs are snapshots of one small engine at two points: job 0 done
// at the first, job 1 and the later-submitted job 2 still running at the
// second. newFoldBlobs writes them in the version-3 layout; oldFoldBlobs
// reads the same snapshots as the engine wrote them before it (versions 2
// and 1) from testdata.
type foldBlobs struct {
	d0a  []byte // first point: from 0, two jobs
	d0b  []byte // second point: from 0, three jobs
	d1   []byte // second point: from 1
	d2   []byte // second point: from 2 (drops the unfinished job 1)
	d3   []byte // second point: from 3 (no entries)
	full []byte // second point: MarshalBinary
}

func newFoldBlobs(t *testing.T) foldBlobs {
	t.Helper()
	eng, err := NewEngine(snapCfg(fault.Plan{}))
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	submit := func(name string, levels int) {
		if _, err := eng.Submit(constSpec(name, 2, levels, eng.Now())); err != nil {
			t.Fatal(err)
		}
	}
	delta := func(from int) []byte {
		b, err := eng.MarshalDelta(from)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var b foldBlobs
	submit("a", 2)
	submit("b", 400)
	step()
	b.d0a = delta(0)
	submit("c", 400)
	step()
	b.d0b, b.d1, b.d2, b.d3 = delta(0), delta(1), delta(2), delta(3)
	if b.full, err = eng.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	if !eng.states.at(0).done || eng.states.at(1).done || eng.states.at(2).done {
		t.Fatal("the rejection table needs job 0 done and jobs 1, 2 running")
	}
	return b
}

// readChainFixture reads a chain of blobs that an engine of the version-2
// snapshot format wrote (see testdata/README.md).
func readChainFixture(t testing.TB, name string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return decodeChain(data)
}

// oldFoldBlobs returns newFoldBlobs' snapshots as the engine wrote them in
// versions 2 (the deltas) and 1 (full).
func oldFoldBlobs(t *testing.T) foldBlobs {
	t.Helper()
	c := readChainFixture(t, "fold-v1v2.chain")
	if len(c) != 6 {
		t.Fatalf("fold-v1v2.chain holds %d blobs, want 6", len(c))
	}
	b := foldBlobs{d0a: c[0], d0b: c[1], d1: c[2], d2: c[3], d3: c[4], full: c[5]}
	for _, d := range [][]byte{b.d0a, b.d0b, b.d1, b.d2, b.d3} {
		if d[len(snapMagic)] != snapV2Delta {
			t.Fatal("fold-v1v2.chain: a delta is not version 2")
		}
	}
	if b.full[len(snapMagic)] != snapV1Full {
		t.Fatal("fold-v1v2.chain: the full snapshot is not version 1")
	}
	return b
}

// TestFoldSnapshotsRejects pins the chains the fold must refuse, each for
// its reason, and the chains mixing versions 1 to 3 it must accept: each
// folds to MarshalBinary's version-3 bytes.
func TestFoldSnapshotsRejects(t *testing.T) {
	b, old := newFoldBlobs(t), oldFoldBlobs(t)
	badVersion := append([]byte(nil), b.d0b...)
	badVersion[len(snapMagic)] = 4
	trailing := func(blob []byte) []byte { return append(append([]byte(nil), blob...), 0) }
	for _, tc := range []struct {
		name  string
		chain [][]byte
		want  string
	}{
		{"empty chain", nil, "empty"},
		{"not a snapshot", [][]byte{[]byte("ABGSNA")}, "not an engine snapshot"},
		{"bad version", [][]byte{b.d0a, badVersion}, "version 4"},
		{"from moves backwards", [][]byte{old.d0a, old.d1, old.d0b}, "moves back"},
		{"first delta skips jobs", [][]byte{b.d1}, "skips past"},
		{"first delta skips jobs, v2", [][]byte{old.d1}, "skips past"},
		{"gap", [][]byte{b.d0a, b.d3}, "skips past"},
		{"gap, v2 then v3", [][]byte{old.d0a, b.d3}, "skips past"},
		{"job count shrinks", [][]byte{old.d0b, old.d0a}, "shrinks"},
		{"job count shrinks, v3 then v2", [][]byte{b.d0b, old.d0a}, "shrinks"},
		{"unfinished job dropped", [][]byte{b.d0a, b.d2}, "drops job 1"},
		{"unfinished job dropped, v2 then v3", [][]byte{old.d0a, b.d2}, "drops job 1"},
		{"unfinished job dropped, v3 then v2", [][]byte{b.d0a, old.d2}, "drops job 1"},
		{"trailing bytes", [][]byte{b.d0a, trailing(b.d0b)}, "trailing"},
		{"trailing bytes, v2", [][]byte{old.d0a, trailing(old.d0b)}, "trailing"},
		{"trailing bytes, v1", [][]byte{trailing(old.full)}, "trailing"},
		{"truncated entry", [][]byte{b.d0a, b.d0b[:len(b.d0b)-3]}, "job 2"},
		{"truncated entry, v2", [][]byte{old.d0a, old.d0b[:len(old.d0b)-3]}, "job 2"},
	} {
		if _, _, err := FoldSnapshots(tc.chain); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	for _, tc := range []struct {
		name  string
		chain [][]byte
	}{
		{"full snapshot alone", [][]byte{b.full}},
		{"v1 full snapshot alone", [][]byte{old.full}},
		{"deltas from 0", [][]byte{b.d0a, b.d0b}},
		{"v2 deltas from 0", [][]byte{old.d0a, old.d0b}},
		{"v2 then v3 delta from 0", [][]byte{old.d0a, b.d0b}},
		{"done job carried from the first delta", [][]byte{b.d0a, b.d1}},
		{"done job carried from a v2 delta", [][]byte{old.d0a, b.d1}},
		{"done job carried to a v2 delta", [][]byte{b.d0a, old.d1}},
		{"v2 deltas", [][]byte{old.d0a, old.d1}},
		{"full snapshot resets the chain", [][]byte{b.d0a, b.full}},
		{"v1 full snapshot resets the chain", [][]byte{b.d0a, old.full}},
		{"v3 full snapshot resets a v2 chain", [][]byte{old.d0a, old.d1, b.full}},
		{"delta after a full snapshot", [][]byte{b.full, b.d1}},
		{"v3 delta after a v1 full snapshot", [][]byte{old.full, b.d1}},
		{"v2 delta after a v3 full snapshot", [][]byte{b.full, old.d1}},
	} {
		got, _, err := FoldSnapshots(tc.chain)
		if err != nil || !bytes.Equal(got, b.full) {
			t.Errorf("%s: fold = %d bytes, %v; want the full snapshot", tc.name, len(got), err)
		}
	}
}

// encodeChain and decodeChain frame a chain of blobs as one fuzz input.
func encodeChain(chain [][]byte) []byte {
	enc := persist.Enc{}
	for _, b := range chain {
		enc.BytesField(b)
	}
	return enc.Bytes()
}

func decodeChain(data []byte) [][]byte {
	d := persist.NewDec(data)
	var chain [][]byte
	for d.Len() > 0 {
		b := d.BytesField()
		if d.Err() != nil {
			break
		}
		chain = append(chain, b)
	}
	return chain
}

// TestFoldSnapshotsReportsDone: with a delta after every step of the chain
// schedule, the done flags the fold returns are the engine's own, job by
// job. A flag wrongly false would only cost a recovery a rebuilt spec, so
// no recovery test would notice it.
func TestFoldSnapshotsReportsDone(t *testing.T) {
	eng, err := NewEngine(snapCfg(fault.Plan{}))
	if err != nil {
		t.Fatal(err)
	}
	var chain [][]byte
	from, mixed := 0, 0
	chainSteps(t, eng, fault.Plan{}, 0, func(steps int) {
		delta, err := eng.MarshalDelta(from)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, delta)
		_, done, err := FoldSnapshots(chain)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]bool, eng.NumJobs())
		for i := range want {
			want[i] = eng.states.at(i).done
		}
		if !reflect.DeepEqual(done, want) {
			t.Fatalf("step %d: fold reports done %v, the engine %v", steps, done, want)
		}
		if slices.Contains(want, true) && slices.Contains(want, false) {
			mixed++
		}
		from = eng.FirstUnfinished(from)
	})
	if mixed == 0 {
		t.Fatal("no step had both done and unfinished jobs")
	}
}

// FuzzFoldSnapshots feeds the fold arbitrary chains. The seed corpus is
// the delta chain of a small run at every quantum boundary — six jobs of
// mixed length, submitted one per boundary, so from lags the newest job —
// each of which must fold to MarshalBinary's bytes at that boundary. Mixed
// seeds take the chain's head from testdata/fuzz-v1v2.chain, the same run
// as the engine wrote it in versions 2 (a delta per boundary) and 1 (a full
// snapshot per boundary), and its tail from the version-3 chain. (The run
// is kept small because the fuzzer minimises every new input it finds.)
// No chain may panic the fold, and whatever it accepts must be a full
// snapshot that folds to itself.
func FuzzFoldSnapshots(f *testing.F) {
	want := map[string][]byte{} // seed chain → MarshalBinary at its last blob
	eng, err := NewEngine(snapCfg(fault.Plan{}))
	if err != nil {
		f.Fatal(err)
	}
	var chain [][]byte
	from := 0
	for i := 0; i < 6 || !eng.Done(); i++ {
		if i < 6 {
			if _, err := eng.Submit(constSpec("f", 1+i%3, 20+40*(i*5%4), eng.Now())); err != nil {
				f.Fatal(err)
			}
		}
		if _, err := eng.Step(); err != nil {
			f.Fatal(err)
		}
		delta, err := eng.MarshalDelta(from)
		if err != nil {
			f.Fatal(err)
		}
		full, err := eng.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		chain = append(chain, delta)
		from = eng.FirstUnfinished(from)
		in := encodeChain(chain)
		want[string(in)] = full
		f.Add(in)
	}
	old := readChainFixture(f, "fuzz-v1v2.chain") // per boundary: v2 delta, v1 full
	if len(old) != 2*len(chain) {
		f.Fatalf("fuzz-v1v2.chain holds %d blobs for %d boundaries", len(old), len(chain))
	}
	for i := range chain {
		full := want[string(encodeChain(chain[:i+1]))]
		for c := 0; c <= i; c++ {
			// Boundaries up to c as version 2 deltas, or as c's version 1
			// full snapshot; the rest as version 3 deltas.
			var v2 [][]byte
			for k := 0; k <= c; k++ {
				v2 = append(v2, old[2*k])
			}
			for _, head := range [][][]byte{v2, {old[2*c+1]}} {
				in := encodeChain(append(append([][]byte(nil), head...), chain[c+1:i+1]...))
				want[string(in)] = full
				f.Add(in)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, _, err := FoldSnapshots(decodeChain(data))
		if full, seed := want[string(data)]; seed && (err != nil || !bytes.Equal(out, full)) {
			t.Fatalf("seed chain folds to %d bytes, %v; want MarshalBinary's %d bytes", len(out), err, len(full))
		}
		if err != nil {
			return
		}
		again, _, err := FoldSnapshots([][]byte{out})
		if err != nil || !bytes.Equal(again, out) {
			t.Fatalf("accepted fold does not fold to itself: %v", err)
		}
	})
}
