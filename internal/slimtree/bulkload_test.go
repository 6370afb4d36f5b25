package slimtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mccatch/internal/diameter"
	"mccatch/internal/metric"
)

// assertMatchesBruteForce pins the tree against a linear scan over its
// items: RangeCount, RangeCountMulti, RangeQuery, KNN and CountAllMulti
// must answer exactly what comparing q with every item answers, and
// DiameterEstimate must be the data-only estimate over the items.
func assertMatchesBruteForce[T any](t *testing.T, label string, tr *Tree[T], dist metric.Distance[T], items []T, radii []float64) {
	t.Helper()
	if tr.Size() != len(items) {
		t.Fatalf("%s: size %d, want %d", label, tr.Size(), len(items))
	}
	if got, want := tr.DiameterEstimate(), diameter.Estimate(items, dist); got != want {
		t.Fatalf("%s: DiameterEstimate = %v, want %v", label, got, want)
	}
	all := tr.CountAllMulti(radii, 3)
	ds := make([]float64, len(items))
	sorted := make([]float64, len(items))
	for qi, q := range items {
		for j, it := range items {
			ds[j] = dist(q, it)
		}
		copy(sorted, ds)
		sort.Float64s(sorted)
		bruteCount := func(r float64) int {
			return sort.Search(len(sorted), func(i int) bool { return sorted[i] > r })
		}
		for e, r := range radii {
			if want := bruteCount(r); all[e][qi] != want {
				t.Fatalf("%s: CountAllMulti[%d][%d] = %d, brute force %d", label, e, qi, all[e][qi], want)
			}
		}
		if qi%7 != 0 { // every 7th element keeps the per-probe checks fast
			continue
		}
		for _, r := range radii {
			if got, want := tr.RangeCount(q, r), bruteCount(r); got != want {
				t.Fatalf("%s: RangeCount(q%d, %v) = %d, brute force %d", label, qi, r, got, want)
			}
		}
		multi := tr.RangeCountMulti(q, radii)
		for e, r := range radii {
			if want := bruteCount(r); multi[e] != want {
				t.Fatalf("%s: RangeCountMulti(q%d)[%d] = %d, brute force %d", label, qi, e, multi[e], want)
			}
		}
		r := radii[len(radii)/2]
		var wantIDs []int
		for j, d := range ds {
			if d <= r {
				wantIDs = append(wantIDs, j)
			}
		}
		gotIDs := tr.RangeQuery(q, r)
		sortInts(gotIDs)
		if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
			t.Fatalf("%s: RangeQuery(q%d) ids %v, brute force %v", label, qi, gotIDs, wantIDs)
		}
		order := make([]int, len(items))
		for j := range order {
			order[j] = j
		}
		sort.SliceStable(order, func(a, b int) bool { return ds[order[a]] < ds[order[b]] })
		order = order[:min(5, len(order))]
		wantD := make([]float64, len(order))
		for i, j := range order {
			wantD[i] = ds[j]
		}
		ki, kd := tr.KNN(q, 5)
		if fmt.Sprint(ki) != fmt.Sprint(order) || fmt.Sprint(kd) != fmt.Sprint(wantD) {
			t.Fatalf("%s: KNN(q%d) = %v/%v, brute force %v/%v", label, qi, ki, kd, order, wantD)
		}
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func TestQueryMatchesBruteForceVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trials := 12
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		n := 20 + rng.Intn(1500)
		dim := 1 + rng.Intn(4)
		pts := randPoints(rng, n, dim)
		for i := rng.Intn(30); i > 0; i-- { // duplicates stress zero distances
			pts = append(pts, append([]float64(nil), pts[rng.Intn(len(pts))]...))
		}
		capacity := []int{0, 4, 8}[trial%3]
		tr := New(metric.Euclidean, capacity, pts)
		assertMatchesBruteForce(t, fmt.Sprintf("vectors/trial%d", trial), tr, metric.Euclidean, pts, randRadii(rng, 150))
	}
}

func TestQueryMatchesBruteForceStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	words := make([]string, 0, 260)
	for i := 0; i < 260; i++ {
		stem := []byte("bulkloadedslimtree")
		for j := rng.Intn(6); j > 0; j-- {
			stem[rng.Intn(len(stem))] = byte('a' + rng.Intn(26))
		}
		words = append(words, string(stem[:4+rng.Intn(13)]))
	}
	tr := New(metric.Levenshtein, 8, words)
	assertMatchesBruteForce(t, "strings", tr, metric.Levenshtein, words, []float64{0, 1, 2, 3, 5, 8, 13})
}

// TestBuildWorkerInvariant: the bulk-built tree must be identical for
// every worker count — proven by comparing probe-by-probe metric work
// (DistCalls on identical query sequences) and query results.
func TestBuildWorkerInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pts := randPoints(rng, 3000, 2)
	radii := randRadii(rng, 150)
	serial := NewWithWorkers(metric.Euclidean, 0, pts, 1)
	buildCalls := serial.DistCalls()
	if buildCalls == 0 {
		t.Fatal("serial bulk build performed no metric evaluations")
	}
	for _, workers := range []int{2, 8} {
		par := NewWithWorkers(metric.Euclidean, 0, pts, workers)
		if p := par.DistCalls(); p != buildCalls {
			t.Fatalf("workers=%d: build dist calls differ (%d vs %d): trees are not identical", workers, buildCalls, p)
		}
		serial.ResetDistCalls()
		par.ResetDistCalls()
		for qi := 0; qi < 200; qi++ {
			q := pts[rng.Intn(len(pts))]
			cs := serial.RangeCountMulti(q, radii)
			cp := par.RangeCountMulti(q, radii)
			for e := range radii {
				if cs[e] != cp[e] {
					t.Fatalf("workers=%d: counts differ at q%d radius %d", workers, qi, e)
				}
			}
		}
		if s, p := serial.DistCalls(), par.DistCalls(); s != p {
			t.Fatalf("workers=%d: query dist calls differ (%d vs %d): tree shapes diverged", workers, s, p)
		}
	}
}

// TestBuildBalancedHeight: the bulk build must hit the balanced minimum
// height ⌈log_cap(n)⌉.
func TestBuildBalancedHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, n := range []int{1, 30, 33, 1000, 5000} {
		pts := randPoints(rng, n, 2)
		blk := New(metric.Euclidean, 32, pts)
		want := 1
		for span := 32; span < n; span *= 32 {
			want++
		}
		if got := blk.Height(); got != want {
			t.Errorf("n=%d: bulk height %d, want balanced %d", n, got, want)
		}
		if err := blk.MaxCoverError(); err != 0 {
			t.Errorf("n=%d: covering invariant violated by %v", n, err)
		}
	}
}

// TestDiameterEstimateNonMonotoneVectorMetric guards the bbox shortcut's
// self-validation: for a valid (pseudo-)metric over vectors that is NOT
// monotone in the box corners, the corner distance collapses to 0 and the
// estimate must fall through to the exact branch-and-bound instead of
// silently underestimating the radii schedule.
func TestDiameterEstimateNonMonotoneVectorMetric(t *testing.T) {
	// Projection pseudo-metric: distance of the points' projections onto
	// the (1,-1) axis. Symmetric, zero on identical args, triangular —
	// but d(boxLo, boxHi) = 0 while the true diameter is √2.
	proj := func(a, b []float64) float64 {
		return math.Abs((a[0]-a[1])-(b[0]-b[1])) / math.Sqrt2
	}
	pts := [][]float64{{0, 1}, {1, 0}, {0.5, 0.5}, {0.2, 0.8}, {0.9, 0.1}, {0, 0}, {1, 1}}
	if got := New(proj, 4, pts).DiameterEstimate(); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("diameter = %v, want √2 via the exact path", got)
	}
}

func TestBuildEdges(t *testing.T) {
	empty := New(metric.Euclidean, 0, nil)
	if empty.Size() != 0 || empty.RangeCount([]float64{0}, 10) != 0 {
		t.Error("empty bulk tree misbehaves")
	}
	one := New(metric.Euclidean, 0, [][]float64{{1, 2}})
	if one.Size() != 1 || one.RangeCount([]float64{1, 2}, 0) != 1 {
		t.Error("singleton bulk tree misbehaves")
	}
	dups := make([][]float64, 200)
	for i := range dups {
		dups[i] = []float64{7, 7}
	}
	dup := New(metric.Euclidean, 4, dups)
	if got := dup.RangeCount([]float64{7, 7}, 0); got != 200 {
		t.Errorf("all-duplicates bulk tree counts %d at r=0, want 200", got)
	}
	if dup.MaxCoverError() != 0 {
		t.Error("all-duplicates bulk tree violates covering invariant")
	}
}
