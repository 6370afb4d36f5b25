// Package parallel is the worker-pool substrate the detection pipeline
// fans out on. MCCATCH's hot loops are per-point probes against a
// read-only index (range counts, range queries, bridge searches), so they
// parallelize as independent units of work that write into preallocated
// per-index slots; For schedules exactly that shape, and ForWorker also
// names the worker running each unit, so callers can keep one private
// accumulator per worker. Limiter bounds the goroutines a recursive
// fan-out (kd-tree / R-tree bulk build) may spawn.
//
// Everything here is deterministic by construction: the scheduling order
// is unobservable as long as callers keep each unit of work independent
// and write results only into their own slot, which is how every caller
// in this repository uses it.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: values ≤ 0 mean "use all
// available parallelism" and resolve to runtime.GOMAXPROCS(0); positive
// values are returned unchanged (1 means serial).
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// chunkDivisor controls chunk granularity: each worker's share is split
// into this many chunks so stragglers (points whose probes descend more
// of the tree) rebalance onto idle workers.
const chunkDivisor = 8

// For runs fn(i) for every i in [0, n) across min(Workers(workers), n)
// goroutines; it is ForWorker without the worker index.
func For(workers, n int, fn func(i int)) {
	ForWorker(workers, n, func(_, i int) { fn(i) })
}

// ForWorker runs fn(g, i) for every i in [0, n) across
// w = min(Workers(workers), n) goroutines, where g in [0, w) identifies
// the goroutine running the call: two calls with the same g never
// overlap, so fn may keep private per-worker state in slot g without
// locking. Indices are handed out in contiguous chunks through an
// atomic cursor, so scheduling costs O(1) per chunk rather than O(1) per
// index. If any fn panics, ForWorker stops handing out new chunks and
// re-panics the first panic value in the caller's goroutine once all
// workers have drained.
func ForWorker(workers, n int, fn func(g, i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	chunk := n / (w * chunkDivisor)
	if chunk < 1 {
		chunk = 1
	}
	var (
		cursor   atomic.Int64
		panicked atomic.Bool
		panicVal any
		panicMu  sync.Mutex
		wg       sync.WaitGroup
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if !panicked.Swap(true) {
						panicVal = r
					}
					panicMu.Unlock()
				}
			}()
			for !panicked.Load() {
				start := int(cursor.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(g, i)
				}
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
}

// Limiter bounds how many extra goroutines a recursive fan-out may hold
// alive at once. A Limiter for w workers allows w-1 extra goroutines on
// top of the calling one, so total parallelism stays at w; a serial
// limiter (w = 1) never spawns.
type Limiter struct {
	slots chan struct{}
}

// NewLimiter returns a Limiter for Workers(workers) total workers.
func NewLimiter(workers int) *Limiter {
	return &Limiter{slots: make(chan struct{}, Workers(workers)-1)}
}

// Go runs fn in a fresh goroutine when a worker slot is free, inline
// otherwise. The returned wait function blocks until fn is done and
// re-panics in the caller any panic a spawned fn raised (an inline fn's
// panic surfaces at the Go call itself); callers must invoke wait before
// using results fn wrote.
func (l *Limiter) Go(fn func()) (wait func()) {
	select {
	case l.slots <- struct{}{}:
		done := make(chan any, 1)
		go func() {
			defer func() {
				done <- recover()
				<-l.slots
			}()
			fn()
		}()
		return func() {
			if r := <-done; r != nil {
				panic(r)
			}
		}
	default:
		fn()
		return func() {}
	}
}
