package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"mccatch"
	"mccatch/internal/core"
	"mccatch/internal/data"
	"mccatch/internal/index"
	"mccatch/internal/metric"
	"mccatch/internal/rtree"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload at a small size, untraced and traced,
// and requires a clean run that reports exactly the declared metrics.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			out, err := run(config{seed: 3, seconds: 1, trace: trace, size: 0.2})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s trace=%t: %d of %d ops failed, first: %v", name, trace, out.failed, out.attempted, out.firstErr)
			}
			want := perLayer
			if !trace {
				want = endToEnd
			}
			got := map[string]string{}
			for k, m := range out.metrics {
				got[k] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%t: metrics %v, want %v", name, trace, got, want)
			}
		}
	}
}

// TestCheckRejectsPerturbedResult shows the output checks are live: a
// Result one score off, or missing a planted microcluster, fails.
func TestCheckRejectsPerturbedResult(t *testing.T) {
	ax := data.AxiomDataset(data.Gaussian, data.Cardinality, 2000, 1)
	ref, err := reference(mccatch.BuildVectors, ax.Points)
	if err != nil {
		t.Fatal(err)
	}
	planted := [][]int{ax.Red, ax.Green}
	res, err := batchOp(mccatch.BuildVectors, ax.Points)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBatch(res, ref, planted); err != nil {
		t.Fatalf("unperturbed result fails: %v", err)
	}
	res.PointScores[0] += 1e-9
	if checkBatch(res, ref, planted) == nil {
		t.Error("a perturbed score passes the batch check")
	}
	if checkBatch(ref, ref, [][]int{ax.Red[1:]}) == nil {
		t.Error("a result lacking a planted microcluster passes the batch check")
	}

	body, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkServed(body, &mccatch.Result{}, ref); err != nil {
		t.Fatalf("unperturbed served result fails: %v", err)
	}
	bad := *ref
	bad.PointScores = append([]float64(nil), ref.PointScores...)
	bad.PointScores[len(bad.PointScores)-1] *= 2
	body, err = json.Marshal(&bad)
	if err != nil {
		t.Fatal(err)
	}
	if checkServed(body, &mccatch.Result{}, ref) == nil {
		t.Error("a perturbed served result passes the serving check")
	}
}

// TestDecoratorsPreserveResults runs the traced pipeline on both trees
// and requires the untraced Result, the untraced tree's optional
// interfaces, and spans that fit inside the pipeline span.
func TestDecoratorsPreserveResults(t *testing.T) {
	ax := data.AxiomDataset(data.Gaussian, data.Cardinality, 2000, 2)
	vref, err := reference(mccatch.BuildVectors, ax.Points)
	if err != nil {
		t.Fatal(err)
	}
	res, ot, err := tracedRun(ax.Points, vref.Params, tracedVectors)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTraced(res, vref, ot); err != nil {
		t.Errorf("R-tree: %v", err)
	}
	if ot.self <= 0 || ot.gelProbes == 0 || ot.bridgeQueries == 0 {
		t.Errorf("R-tree spans missing: %+v", ot)
	}
	sameInterfaces(t, "R-tree", rtree.NewWithWorkers(ax.Points, 0, 1), tracedVectors(&tracer{}, vref.Params)(ax.Points))

	ln := data.LastNames(300, 3, 2)
	sref, err := reference(mccatch.BuildStrings, ln.Words)
	if err != nil {
		t.Fatal(err)
	}
	res, ot, err = tracedRun(ln.Words, sref.Params, tracedStrings)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTraced(res, sref, ot); err != nil {
		t.Errorf("slim-tree: %v", err)
	}
	if ot.evalsSelf == 0 || ot.evalsBuild == 0 {
		t.Errorf("slim-tree evaluation counts missing: %+v", ot)
	}
	sameInterfaces(t, "slim-tree", core.SlimBuilder(metric.Levenshtein, sref.Params)(ln.Words), tracedStrings(&tracer{}, sref.Params)(ln.Words))
}

func sameInterfaces[T any](t *testing.T, name string, plain, traced index.Index[T]) {
	t.Helper()
	checks := map[string]func(any) bool{
		"MultiCounter":       func(x any) bool { _, ok := x.(index.MultiCounter[T]); return ok },
		"MultiCountAppender": func(x any) bool { _, ok := x.(index.MultiCountAppender[T]); return ok },
		"SelfMultiCounter":   func(x any) bool { _, ok := x.(index.SelfMultiCounter); return ok },
		"CrossMultiCounter":  func(x any) bool { _, ok := x.(index.CrossMultiCounter[T]); return ok },
		"CrossCounter":       func(x any) bool { _, ok := x.(index.CrossCounter[T]); return ok },
		"QueryAppender":      func(x any) bool { _, ok := x.(index.QueryAppender[T]); return ok },
		"KNNer":              func(x any) bool { _, ok := x.(index.KNNer[T]); return ok },
	}
	for iface, has := range checks {
		if has(plain) != has(traced) {
			t.Errorf("%s: %s implemented by tree %t, by decorator %t", name, iface, has(plain), has(traced))
		}
	}
}
