package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the median of xs (the mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least tailBeyond
// samples beyond it, but never one below the nearest-rank p90, with that
// percentile and the sample count. From 100 samples up the first rule
// decides; below that (a batch phase of a few dozen ops) the tail is the
// p90, so it always stays above the median.
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := sortedCopy(xs)
	k := max(n-1-tailBeyond, rank(0.9, n))
	return s[k], 100 * float64(k+1) / float64(n), n
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[rank(q, len(xs))]
}

// rank is the 0-based index of the nearest-rank q-quantile of n sorted
// samples.
func rank(q float64, n int) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// heap is a snapshot of the allocator counters a measurement diffs.
type heap struct {
	totalAlloc uint64
	numGC      uint32
}

func readHeap() heap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heap{m.TotalAlloc, m.NumGC}
}
