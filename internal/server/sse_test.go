package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"abg/internal/obs"
)

// flushCounter is the ResponseWriter TestEventStreamCoalescesFlushes drives
// EventHub.Handler through. It holds the first frame write until release is
// closed, so the frames published meanwhile queue on the subscriber's
// channel, and it counts the flushes from that write on.
type flushCounter struct {
	header  http.Header
	ready   chan struct{} // closed at the first flush: the stream is subscribed
	release chan struct{}
	flushed chan struct{} // signalled after each flush

	mu        sync.Mutex
	body      bytes.Buffer
	framing   bool // a frame write has begun
	flushes   int  // flushes since then
	unflushed int  // bytes written since the last flush
	readyOnce sync.Once
}

func newFlushCounter() *flushCounter {
	return &flushCounter{
		header: http.Header{}, ready: make(chan struct{}),
		release: make(chan struct{}), flushed: make(chan struct{}, 1),
	}
}

func (w *flushCounter) Header() http.Header { return w.header }
func (w *flushCounter) WriteHeader(int)     {}

func (w *flushCounter) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("id: ")) {
		w.mu.Lock()
		first := !w.framing
		w.framing = true
		w.mu.Unlock()
		if first {
			<-w.release
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.unflushed += len(p)
	return w.body.Write(p)
}

func (w *flushCounter) Flush() {
	w.mu.Lock()
	if w.framing {
		w.flushes++
	}
	w.unflushed = 0
	w.mu.Unlock()
	w.readyOnce.Do(func() { close(w.ready) })
	select {
	case w.flushed <- struct{}{}:
	default:
	}
}

// flushedLen is the length of the body as of the last flush.
func (w *flushCounter) flushedLen() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.Len() - w.unflushed
}

// TestEventStreamCoalescesFlushes pins the handler's batching: frames that
// queue while a write is in progress go out under one flush, byte for byte
// and in publish order, both on a live stream and when the hub closes with
// frames still queued.
func TestEventStreamCoalescesFlushes(t *testing.T) {
	const n = 50
	preamble := fmt.Sprintf("retry: %d\n: abgd event stream (abg)\n\n", sseRetryHintMillis)
	for _, tc := range []struct {
		name        string
		closeQueued bool // close the hub while frames are queued, not disconnect
	}{
		{"client-disconnects", false},
		{"hub-closes-with-frames-queued", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hub := NewEventHub(1, 0, 0)
			w := newFlushCounter()
			ctx, disconnect := context.WithCancel(context.Background())
			defer disconnect()
			req := httptest.NewRequest(http.MethodGet, "/api/v1/events", nil).WithContext(ctx)
			done := make(chan struct{})
			go func() {
				defer close(done)
				hub.Handler("abg")(w, req)
			}()
			<-w.ready

			var want []byte
			for i := 1; i <= n; i++ {
				data := fmt.Sprintf(`{"kind":"request","time":%d,"job":0}`, i)
				hub.Publish(0, []byte(data))
				want = append(want, fmt.Sprintf("id: %d\ndata: %s\n\n", i, data)...)
			}
			if tc.closeQueued {
				hub.Close()
				close(w.release)
			} else {
				close(w.release)
				for w.flushedLen() < len(preamble)+len(want) {
					<-w.flushed
				}
				disconnect()
			}
			<-done

			w.mu.Lock()
			defer w.mu.Unlock()
			body := w.body.Bytes()
			if !bytes.HasPrefix(body, []byte(preamble)) {
				t.Fatalf("stream does not open with the preamble %q:\n%q", preamble, body)
			}
			if got := body[len(preamble):]; !bytes.Equal(got, want) {
				t.Fatalf("frames after the preamble differ from the %d published:\ngot  %q\nwant %q", n, got, want)
			}
			if w.unflushed != 0 {
				t.Errorf("handler returned with %d bytes written but not flushed", w.unflushed)
			}
			if w.flushes >= n {
				t.Errorf("%d flushes for %d frames queued behind one write, want fewer than %d", w.flushes, n, n)
			}
		})
	}
}

// FuzzEventJSON pins appendEvent to encoding/json: for any event, the
// rendered bytes equal json.Marshal of its eventDTO, or the marshal_error
// stand-in when json.Marshal fails (a NaN or ±Inf float).
func FuzzEventJSON(f *testing.F) {
	add := func(e obs.Event) {
		f.Add(byte(e.Kind), []byte(e.Name), math.Float64bits(e.Request), math.Float64bits(e.Parallelism),
			e.Time, e.Quantum, e.Job, e.IntRequest, e.Allotment, e.P, e.Steps,
			e.Work, e.Waste, e.Response, e.Deprived, e.Completed)
	}
	base := obs.Event{
		Kind: obs.EvQuantumEnd, Time: 1200, Quantum: 3, Job: 7, Name: "fp",
		Request: 4.5, IntRequest: 5, Allotment: 4, P: 32, Steps: 100,
		Work: 380, Waste: 20, Parallelism: 3.8, Deprived: true,
	}
	add(base)
	add(obs.Event{Kind: obs.EvAllocDecision, Job: -1})
	add(obs.Event{Kind: 200, Time: math.MinInt64, Quantum: math.MaxInt, Job: math.MinInt,
		Response: math.MaxInt64, Completed: true})
	for _, name := range []string{"<", ">", "&", "a\u2028b\u2029", "\xff\xfe\xc3", "\x00\x1f\t\n\x7f", `"\`, "ok name-1"} {
		e := base
		e.Name = name
		add(e)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		1e-7, -1e-7, 1e-6, 1e21, 1e20, 5e-324, math.MaxFloat64, 0.1 + 0.2} {
		e := base
		e.Request, e.Parallelism = v, -v
		add(e)
	}
	f.Fuzz(func(t *testing.T, kind byte, name []byte, request, parallelism uint64,
		tm int64, quantum, job, intRequest, allotment, p, steps int,
		work, waste, response int64, deprived, completed bool) {
		e := obs.Event{
			Kind: obs.Kind(kind), Time: tm, Quantum: quantum, Job: job, Name: string(name),
			Request: math.Float64frombits(request), IntRequest: intRequest,
			Allotment: allotment, P: p, Steps: steps, Work: work, Waste: waste,
			Response: response, Parallelism: math.Float64frombits(parallelism),
			Deprived: deprived, Completed: completed,
		}
		want, err := json.Marshal(eventDTO{
			Kind: e.Kind.String(), Time: e.Time, Quantum: e.Quantum, Job: e.Job,
			Name: e.Name, Request: e.Request, IntRequest: e.IntRequest,
			Allotment: e.Allotment, P: e.P, Steps: e.Steps, Work: e.Work,
			Waste: e.Waste, Response: e.Response, Parallelism: e.Parallelism,
			Deprived: e.Deprived, Completed: e.Completed,
		})
		if err != nil {
			want = []byte(`{"kind":"marshal_error"}`)
		}
		if got := MarshalEvent(e); !bytes.Equal(got, want) {
			t.Fatalf("event %+v:\ngot  %s\nwant %s", e, got, want)
		}
	})
}
