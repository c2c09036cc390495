// Package parallel provides the deterministic fan-out primitives used by the
// experiment harness and the cluster's shard round: independent tasks are
// executed concurrently across CPUs while results land in input order, so
// output is identical no matter how many cores ran it.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) using up to GOMAXPROCS
// goroutines. fn must be safe for concurrent invocation on distinct indices;
// each index is processed exactly once. ForEach returns when all calls have
// completed. n ≤ 0 is a no-op.
//
// A panic in fn does not deadlock the pool or strand sibling goroutines:
// remaining work is cancelled, every worker is joined, and the first panic
// value observed is re-raised on the caller's goroutine.
func ForEach(n int, fn func(i int)) {
	ForEachN(n, 0, fn)
}

// ForEachN is ForEach with an explicit worker bound: at most workers
// goroutines run fn (workers ≤ 0 means GOMAXPROCS, and the count is further
// capped at n). workers == 1 runs fn inline on the calling goroutine.
// Index-to-goroutine assignment is dynamic (load-balanced), so only code
// whose result does not depend on it belongs in fn.
func ForEachN(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64 // next index to claim
		panicked atomic.Bool  // cancels remaining work
		panicVal any          // first panic value; published via wg.Wait
		panicMu  sync.Mutex
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if !panicked.Load() {
						panicVal = r
						panicked.Store(true)
					}
					panicMu.Unlock()
				}
			}()
			for !panicked.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
}

// Map runs fn over [0, n) concurrently and returns the results in input
// order. Errors are collected per index; the first non-nil error (in index
// order) is returned alongside the full result slice. Panics in fn propagate
// to the caller per ForEach's contract.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(n, func(i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
