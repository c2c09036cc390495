package parallel

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	const n = 1000
	var hits [n]int32
	ForEach(n, func(i int) {
		atomic.AddInt32(&hits[i], 1)
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestForEachEdgeCases(t *testing.T) {
	called := false
	ForEach(0, func(int) { called = true })
	ForEach(-5, func(int) { called = true })
	if called {
		t.Fatal("fn called for n <= 0")
	}
	// n = 1 must work (sequential fast path).
	count := 0
	ForEach(1, func(i int) { count++ })
	if count != 1 {
		t.Fatal("n=1 failed")
	}
}

func TestMapOrderPreserved(t *testing.T) {
	out, err := Map(100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	_, err := Map(10, func(i int) (int, error) {
		switch i {
		case 3:
			return 0, errB
		case 7:
			return 0, errA
		}
		return i, nil
	})
	if err != errB {
		t.Fatalf("expected the lowest-index error, got %v", err)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(0, func(int) (string, error) { return "", nil })
	if err != nil || len(out) != 0 {
		t.Fatal("empty map broken")
	}
}

func TestForEachNWorkerBound(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		var live, peak atomic.Int32
		var hits [256]int32
		ForEachN(len(hits), workers, func(i int) {
			n := live.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(50 * time.Microsecond)
			atomic.AddInt32(&hits[i], 1)
			live.Add(-1)
		})
		if p := peak.Load(); int(p) > workers {
			t.Fatalf("workers=%d: observed %d concurrent calls", workers, p)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

// TestForEachPanic is the pool-deadlock regression: a panic in one worker
// must cancel the remaining work, join every sibling goroutine, and re-raise
// the original panic value on the caller's goroutine — not hang the pool.
func TestForEachPanic(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int32
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		// Far more indices than workers: before the fix the feeder goroutine
		// blocked forever on the work channel once a worker died.
		ForEachN(100000, 4, func(i int) {
			calls.Add(1)
			if i == 10 {
				panic(boom)
			}
		})
		done <- nil
	}()
	select {
	case r := <-done:
		if r != boom {
			t.Fatalf("recovered %v, want the original panic value %v", r, boom)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ForEach deadlocked after a worker panic")
	}
	if c := calls.Load(); int(c) >= 100000 {
		t.Fatalf("panic did not cancel remaining work (%d calls ran)", c)
	}
}

// TestForEachPanicSerialPath: the inline (workers == 1) path propagates
// panics naturally.
func TestForEachPanicSerialPath(t *testing.T) {
	defer func() {
		if r := recover(); r != "single" {
			t.Fatalf("recovered %v, want %q", r, "single")
		}
	}()
	ForEachN(10, 1, func(i int) {
		if i == 3 {
			panic("single")
		}
	})
	t.Fatal("panic did not propagate")
}

func TestMapPanicPropagates(t *testing.T) {
	var wg sync.WaitGroup
	wg.Add(1)
	var recovered any
	go func() {
		defer wg.Done()
		defer func() { recovered = recover() }()
		_, _ = Map(1000, func(i int) (int, error) {
			if i == 500 {
				panic("map boom")
			}
			return i, nil
		})
	}()
	wg.Wait()
	if recovered != "map boom" {
		t.Fatalf("recovered %v, want %q", recovered, "map boom")
	}
}

func BenchmarkForEach(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ForEach(64, func(j int) {
			s := 0
			for k := 0; k < 1000; k++ {
				s += k
			}
			_ = s
		})
	}
}
