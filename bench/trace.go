package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"abg/internal/obs"
)

// maxSpans bounds the spans one traced run keeps in memory.
const maxSpans = 500_000

// spanLog keeps a traced run's spans in memory and writes them once, at
// the end, as Perfetto JSON through obs.WriteSpans. Times are wall
// microseconds since the log was created; each workload records onto its
// own tracks, named "<workload> <what>".
type spanLog struct {
	base time.Time

	mu      sync.Mutex
	spans   []obs.Span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// add records one span. A nil log records nothing, so workloads call it
// unconditionally.
func (l *spanLog) add(track, name string, start, end time.Time, args map[string]any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, obs.Span{
		Name: name, Track: track,
		Start: start.Sub(l.base).Microseconds(),
		// A zero duration would render as an instant, not a slice.
		Dur:  max(1, end.Sub(start).Microseconds()),
		Args: args,
	})
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dropped > 0 {
		fmt.Fprintf(os.Stderr, "bench: trace kept the first %d spans, dropped %d\n", len(l.spans), l.dropped)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteSpans(f, "abg bench", l.spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
