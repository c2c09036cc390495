package server

import (
	"fmt"
	"strings"

	"abg/internal/job"
	"abg/internal/workload"
	"abg/internal/xrand"
)

// Submission limits: a single request may carry at most MaxCount jobs, and
// generator parameters are bounded so a request cannot ask the daemon to
// materialise a pathological DAG. Names are bounded because every job of a
// request keeps its name for good: in the engine's outcome table, in
// snapshots and in its SSE frames.
const (
	MaxCount   = 1024
	maxWidth   = 1 << 12
	maxQuanta  = 1 << 10
	maxCL      = 1000
	maxKeyLen  = 128
	maxNameLen = 128
)

// JobRequest is the JSON body of POST /api/v1/jobs: a workload-generator
// spec, not a DAG. Kind selects the generator family:
//
//	fullPar      constant-parallelism job: Width chains, ~Quanta quanta long
//	serial       width-1 chain, ~Quanta quanta long (pure critical path)
//	batch        random fork-join job (the paper's §7 family): transition
//	             factor CL, phase lengths divided by Shrink, drawn from Seed
//	adversarial  parallelism square wave Width↔1, one quantum per plateau —
//	             the workload that maximises request-loop churn
//
// Count > 1 submits that many jobs in one request (batch kinds draw job i
// from Seed+i). All jobs of one request are admitted at the same quantum
// boundary.
type JobRequest struct {
	Name   string `json:"name,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Width  int    `json:"width,omitempty"`
	Quanta int    `json:"quanta,omitempty"`
	CL     int    `json:"cl,omitempty"`
	Shrink int    `json:"shrink,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	Count  int    `json:"count,omitempty"`
	// Key is an optional client-chosen idempotency key. Submitting the same
	// key twice returns the first submission's ids instead of new jobs, so a
	// client that lost the ack to a crash or timeout can retry safely.
	Key string `json:"key,omitempty"`
}

// Normalize fills defaults and validates ranges; the error text is returned
// to the client with status 400. Exported so the cluster front end can
// normalize a request once before routing it to a shard's SubmitLocal.
func (r *JobRequest) Normalize() error {
	r.Kind = strings.ToLower(strings.TrimSpace(r.Kind))
	switch r.Kind {
	case "":
		r.Kind = "batch"
	case "fullpar", "serial", "batch", "adversarial":
	default:
		return fmt.Errorf("unknown kind %q (want fullPar|serial|batch|adversarial)", r.Kind)
	}
	setDefault := func(v *int, d, max int, name string) error {
		if *v == 0 {
			*v = d
		}
		if *v < 1 || *v > max {
			return fmt.Errorf("%s %d outside [1,%d]", name, *v, max)
		}
		return nil
	}
	if err := setDefault(&r.Width, 16, maxWidth, "width"); err != nil {
		return err
	}
	if err := setDefault(&r.Quanta, 4, maxQuanta, "quanta"); err != nil {
		return err
	}
	if err := setDefault(&r.CL, 20, maxCL, "cl"); err != nil {
		return err
	}
	if err := setDefault(&r.Shrink, 4, 1<<10, "shrink"); err != nil {
		return err
	}
	if err := setDefault(&r.Count, 1, MaxCount, "count"); err != nil {
		return err
	}
	if r.Kind == "batch" && r.CL < 2 {
		return fmt.Errorf("cl %d < 2: a fork-join job needs a parallel phase", r.CL)
	}
	if len(r.Key) > maxKeyLen {
		return fmt.Errorf("idempotency key longer than %d bytes", maxKeyLen)
	}
	if len(r.Name) > maxNameLen {
		return fmt.Errorf("name longer than %d bytes", maxNameLen)
	}
	return nil
}

// BuildProfile constructs the i-th job (i < Count) of a normalized request
// for quantum length l. Randomised kinds derive job i from Seed+i, so a
// request replays identically given the same seed — which is also how the
// end-to-end smoke reproduces a daemon's workload inside the batch
// simulator.
func (r JobRequest) BuildProfile(i, l int) *job.Profile {
	switch r.Kind {
	case "fullpar":
		return workload.ConstantJob(r.Width, r.Quanta, l)
	case "serial":
		return workload.ConstantJob(1, r.Quanta, l)
	case "adversarial":
		widths := make([]int, r.Quanta)
		for q := range widths {
			if q%2 == 0 {
				widths[q] = r.Width
			} else {
				widths[q] = 1
			}
		}
		return workload.StepWidths(widths, l)
	default: // batch
		return workload.GenJob(xrand.New(r.Seed+uint64(i)),
			workload.ScaledJobParams(r.CL, l, r.Shrink))
	}
}

// profiles builds every job of a normalized request for quantum length l.
func (r JobRequest) profiles(l int) []*job.Profile {
	out := make([]*job.Profile, r.Count)
	for i := range out {
		out[i] = r.BuildProfile(i, l)
	}
	return out
}

// jobName labels the i-th job of the request.
func (r JobRequest) jobName(i, id int) string {
	if r.Name != "" {
		if r.Count == 1 {
			return r.Name
		}
		return fmt.Sprintf("%s-%d", r.Name, i)
	}
	return fmt.Sprintf("%s-%d", r.Kind, id)
}
