package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersNormalization(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ in, want int }{
		{0, max},
		{-1, max},
		{-100, max},
		{1, 1},
		{3, 3},
		{max + 7, max + 7}, // oversubscription is allowed, not clamped
	} {
		if got := Workers(tc.in); got != tc.want {
			t.Errorf("Workers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestForCoversEveryIndexExactlyOnce sweeps worker counts (including
// zero/negative = auto and workers > n) and sizes around the chunking
// boundaries.
func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{-2, 0, 1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			seen := make([]int32, n)
			For(workers, n, func(i int) { atomic.AddInt32(&seen[i], 1) })
			for i, s := range seen {
				if s != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, s)
				}
			}
		}
	}
}

// TestForWorkerIndices: every i runs exactly once, every worker index g
// lies in [0, min(Workers(workers), n)), and two calls with the same g
// never overlap — the contract that lets callers keep one private
// accumulator per g without locking (the per-g counters below are plain
// ints, so an overlap would also be a data race under -race).
func TestForWorkerIndices(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			w := min(Workers(workers), n)
			seen := make([]int32, n)
			busy := make([]atomic.Bool, max(w, 1))
			perG := make([]int, max(w, 1))
			ForWorker(workers, n, func(g, i int) {
				if g < 0 || g >= w {
					t.Errorf("workers=%d n=%d: worker index %d outside [0, %d)", workers, n, g, w)
					return
				}
				if busy[g].Swap(true) {
					t.Errorf("workers=%d n=%d: two calls overlap on worker index %d", workers, n, g)
				}
				perG[g]++
				atomic.AddInt32(&seen[i], 1)
				busy[g].Store(false)
			})
			total := 0
			for _, c := range perG {
				total += c
			}
			if total != n {
				t.Fatalf("workers=%d n=%d: %d calls, want %d", workers, n, total, n)
			}
			for i, s := range seen {
				if s != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, s)
				}
			}
		}
	}
}

// TestForWorkerPanicPropagation: ForWorker propagates a worker's panic
// exactly as For does — the original value, in the caller's goroutine.
func TestForWorkerPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want \"boom\"", workers, r)
				}
			}()
			ForWorker(workers, 1000, func(_, i int) {
				if i == 357 {
					panic("boom")
				}
			})
		}()
	}
}

func TestForNegativeNIsANoop(t *testing.T) {
	For(4, -5, func(i int) { t.Errorf("fn called with i=%d on negative n", i) })
}

// TestForPanicPropagation: a panic in any worker must surface in the
// caller's goroutine with the original panic value, after all workers
// drain (no goroutine leaks, no deadlock).
func TestForPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if s, ok := r.(string); !ok || s != "boom" {
					t.Fatalf("workers=%d: recovered %v, want \"boom\"", workers, r)
				}
			}()
			For(workers, 1000, func(i int) {
				if i == 357 {
					panic("boom")
				}
			})
		}()
	}
}

// TestForPanicStopsScheduling: after a panic, workers should stop pulling
// new chunks rather than grind through the remaining work.
func TestForPanicStopsScheduling(t *testing.T) {
	var calls atomic.Int32
	func() {
		defer func() { recover() }()
		For(4, 1_000_000, func(i int) {
			calls.Add(1)
			panic("early")
		})
	}()
	if c := calls.Load(); c > 10_000 {
		t.Errorf("%d calls after first panic; scheduling did not stop early", c)
	}
}

func TestForIsSerialWithOneWorker(t *testing.T) {
	// With workers=1 the order must be exactly 0..n-1 on the caller's
	// goroutine (no concurrency at all).
	var order []int
	For(1, 100, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken at %d: got %d", i, v)
		}
	}
}

func TestLimiterSerialNeverSpawns(t *testing.T) {
	lim := NewLimiter(1)
	done := false
	wait := lim.Go(func() { done = true })
	// fn must have run inline: observable before wait.
	if !done {
		t.Fatal("serial limiter deferred fn to a goroutine")
	}
	wait()
}

func TestLimiterRunsEverythingOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		lim := NewLimiter(workers)
		var calls atomic.Int32
		var waits []func()
		for i := 0; i < 50; i++ {
			waits = append(waits, lim.Go(func() { calls.Add(1) }))
		}
		for _, w := range waits {
			w()
		}
		if calls.Load() != 50 {
			t.Fatalf("workers=%d: %d calls, want 50", workers, calls.Load())
		}
	}
}

// TestLimiterPanicPropagates: a panicking fn must always reach the caller
// — at wait() when fn ran on a goroutine, or at the Go call itself when
// the limiter fell back to running fn inline.
func TestLimiterPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 8} {
		lim := NewLimiter(workers)
		panics := 0
		for i := 0; i < 20; i++ {
			i := i
			func() {
				defer func() {
					if recover() != nil {
						panics++
					}
				}()
				wait := lim.Go(func() {
					if i%2 == 0 {
						panic(i)
					}
				})
				wait()
			}()
		}
		if panics != 10 {
			t.Errorf("workers=%d: %d panics propagated, want 10", workers, panics)
		}
	}
}

// TestLimiterNestedFanOutCompletes models the kd-tree build shape: each
// task spawns two children until depth runs out. Must terminate for every
// worker budget (inline fallback prevents slot-exhaustion deadlock).
func TestLimiterNestedFanOutCompletes(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		lim := NewLimiter(workers)
		var leaves atomic.Int32
		var rec func(depth int)
		rec = func(depth int) {
			if depth == 0 {
				leaves.Add(1)
				return
			}
			wait := lim.Go(func() { rec(depth - 1) })
			rec(depth - 1)
			wait()
		}
		rec(10)
		if leaves.Load() != 1024 {
			t.Fatalf("workers=%d: %d leaves, want 1024", workers, leaves.Load())
		}
	}
}
