package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mccatch/internal/index"
	"mccatch/internal/kdtree"
	"mccatch/internal/metric"
	"mccatch/internal/rtree"
	"mccatch/internal/slimtree"
)

// The concurrency layer's contract is byte-identical output for every
// worker count (mccatch.WithWorkers doc). These property tests enforce it:
// for seeded random vector, string, and point-set datasets, the Result of
// WithWorkers(k), k ∈ {2, 8}, must be deep-equal to the serial (k = 1) run
// — across all three index backends for vector data. Run them under
// -race to also prove the engine is race-free.

// equivWorkerCounts are the parallel worker counts checked against the
// serial baseline. 8 deliberately oversubscribes small inputs so the
// n < workers and chunk-boundary paths are exercised.
var equivWorkerCounts = []int{2, 8}

// normalized strips the one field that legitimately differs between runs
// (the requested worker count itself) so reflect.DeepEqual compares pure
// output.
func normalized(r *Result) *Result {
	c := *r
	c.Params.Workers = 0
	return &c
}

func assertEquivalent[T any](t *testing.T, label string, items []T, dist metric.Distance[T], builderFor func(workers int) index.Builder[T]) {
	t.Helper()
	serial, err := RunWithIndex(items, dist, builderFor(1), Params{Workers: 1})
	if err != nil {
		t.Fatalf("%s: serial run failed: %v", label, err)
	}
	for _, k := range equivWorkerCounts {
		par, err := RunWithIndex(items, dist, builderFor(k), Params{Workers: k})
		if err != nil {
			t.Fatalf("%s: workers=%d run failed: %v", label, k, err)
		}
		if !reflect.DeepEqual(normalized(serial), normalized(par)) {
			t.Errorf("%s: workers=%d result differs from serial\nserial:   %+v\nparallel: %+v",
				label, k, summarize(serial), summarize(par))
		}
	}
}

// summarize keeps failure output readable on large datasets.
func summarize(r *Result) string {
	return fmt.Sprintf("{mcs=%d cutoff=%v histogram=%v firstScores=%.4v}",
		len(r.Microclusters), r.Cutoff, r.Histogram, head(r.PointScores, 5))
}

func head(xs []float64, k int) []float64 {
	if len(xs) < k {
		k = len(xs)
	}
	return xs[:k]
}

// slimBuilder returns the paper-default backend built serially; workers
// only matter for the probes.
func slimBuilder[T any](dist metric.Distance[T]) func(workers int) index.Builder[T] {
	return func(int) index.Builder[T] {
		return func(sub []T) index.Index[T] { return slimtree.New(dist, 0, sub) }
	}
}

// randomVectorDataset mixes blobs, uniform scatter, planted tight
// microclusters and duplicates — the shapes the pipeline branches on
// (nonsingleton gelling, singletons, excused dense cores).
func randomVectorDataset(rng *rand.Rand) [][]float64 {
	var pts [][]float64
	for b := 1 + rng.Intn(3); b > 0; b-- {
		cx, cy := rng.Float64()*100, rng.Float64()*100
		sigma := 0.5 + rng.Float64()*2
		for i := 80 + rng.Intn(200); i > 0; i-- {
			pts = append(pts, []float64{cx + rng.NormFloat64()*sigma, cy + rng.NormFloat64()*sigma})
		}
	}
	for i := 2 + rng.Intn(4); i > 0; i-- { // planted microcluster far out
		base := []float64{200 + rng.Float64()*50, 200 + rng.Float64()*50}
		for j := 2 + rng.Intn(4); j > 0; j-- {
			pts = append(pts, []float64{base[0] + rng.Float64()*0.3, base[1] + rng.Float64()*0.3})
		}
	}
	for i := rng.Intn(8); i > 0; i-- { // scatter singletons
		pts = append(pts, []float64{rng.Float64()*400 - 100, rng.Float64()*400 - 100})
	}
	for i := rng.Intn(10); i > 0; i-- { // exact duplicates
		pts = append(pts, append([]float64(nil), pts[rng.Intn(len(pts))]...))
	}
	return pts
}

func TestParallelEquivalenceVectorsAllBackends(t *testing.T) {
	backends := map[string]func(workers int) index.Builder[[]float64]{
		"slimtree": slimBuilder[[]float64](metric.Euclidean),
		"kdtree": func(w int) index.Builder[[]float64] {
			return func(sub [][]float64) index.Index[[]float64] { return kdtree.NewWithWorkers(sub, w) }
		},
		"rtree": func(w int) index.Builder[[]float64] {
			return func(sub [][]float64) index.Index[[]float64] { return rtree.NewWithWorkers(sub, 0, w) }
		},
	}
	trials := 3
	if testing.Short() {
		trials = 1
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		pts := randomVectorDataset(rng)
		for name, builderFor := range backends {
			assertEquivalent(t, fmt.Sprintf("vectors/%s/trial%d", name, trial),
				pts, metric.Euclidean, builderFor)
		}
	}
}

func TestParallelEquivalenceStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	words := make([]string, 0, 320)
	for i := 0; i < 260; i++ { // common stems with small edits
		stem := []byte("microclustering")
		for j := rng.Intn(4); j > 0; j-- {
			stem[rng.Intn(len(stem))] = byte('a' + rng.Intn(26))
		}
		words = append(words, string(stem[:8+rng.Intn(7)]))
	}
	for i := 0; i < 12; i++ { // far-off outliers
		w := make([]byte, 20+rng.Intn(10))
		for j := range w {
			w[j] = byte('0' + rng.Intn(10))
		}
		words = append(words, string(w))
	}
	assertEquivalent(t, "strings/slimtree", words, metric.Levenshtein,
		slimBuilder[string](metric.Levenshtein))
}

func TestParallelEquivalencePointSets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sets := make([]metric.PointSet, 0, 160)
	for i := 0; i < 150; i++ { // clustered sets
		cx, cy := rng.Float64()*10, rng.Float64()*10
		s := make(metric.PointSet, 3+rng.Intn(5))
		for j := range s {
			s[j] = []float64{cx + rng.NormFloat64()*0.3, cy + rng.NormFloat64()*0.3}
		}
		sets = append(sets, s)
	}
	for i := 0; i < 6; i++ { // displaced outlier sets
		s := make(metric.PointSet, 3+rng.Intn(5))
		for j := range s {
			s[j] = []float64{100 + rng.Float64(), 100 + rng.Float64()}
		}
		sets = append(sets, s)
	}
	assertEquivalent(t, "pointsets/slimtree", sets, metric.Hausdorff,
		slimBuilder[metric.PointSet](metric.Hausdorff))
}

// TestParallelEquivalenceDegenerate covers the edge shapes: a single
// point, all-duplicate (zero-diameter) data, and n smaller than the
// worker count.
func TestParallelEquivalenceDegenerate(t *testing.T) {
	for _, pts := range [][][]float64{
		{{1, 2}},
		{{3, 3}, {3, 3}, {3, 3}, {3, 3}},
		{{0, 0}, {1, 1}, {100, 100}},
	} {
		assertEquivalent(t, fmt.Sprintf("degenerate/n%d", len(pts)),
			pts, metric.Euclidean, slimBuilder[[]float64](metric.Euclidean))
	}
}

// TestWorkersDoNotAffectDefaulting: Workers must pass through withDefaults
// untouched (0 stays 0 = auto), so the builder closures see the raw value.
func TestWorkersDoNotAffectDefaulting(t *testing.T) {
	p, err := Params{Workers: 0}.withDefaults(100)
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers != 0 {
		t.Errorf("Workers defaulted to %d, want 0 (= auto)", p.Workers)
	}
	p, err = Params{Workers: 5}.withDefaults(100)
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers != 5 {
		t.Errorf("Workers = %d, want 5", p.Workers)
	}
}
