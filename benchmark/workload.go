package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"mccatch"
	"mccatch/internal/core"
	"mccatch/internal/data"
	"mccatch/internal/eval"
	"mccatch/internal/index"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	size    float64 // input size as a share of the full workload (1 = full)
}

// inputs is what a workload generates from its seed.
type inputs[T any] struct {
	items   []T // the batch input, also preloaded into the server
	labels  []bool
	planted [][]int // microclusters every batch Result must report exactly
	pool    []T     // fresh items for the server, drawn from seed+1 at full size
	poolLab []bool
}

// spec describes one workload: how to make its inputs, which library
// calls process them, and how its run time is split.
type spec[T any] struct {
	gen func(seed int64, size float64) inputs[T]
	// build is the batch op's constructor (nil for a serving-only
	// workload); traced is its traced counterpart.
	build  func([]T, ...mccatch.Option) (*mccatch.Detector[T], error)
	traced func(*tracer, core.Params) index.Builder[T]
	// newInc makes the serving backend's empty Incremental; oneShot is
	// the one-shot run a detect over the same live set must equal.
	newInc  func(inputs[T]) (*mccatch.Incremental[T], error)
	oneShot func(in inputs[T], live []T) (*mccatch.Result, error)
	rate    float64 // offered serving rate, requests/s
	// batchShare and serveShare split --seconds between the batch phase,
	// the open-loop phase and (the rest) the uncached-detect phase.
	batchShare, serveShare float64
}

var workloads = map[string]func(config) (*outcome, error){
	"vec2d-10k":   func(c config) (*outcome, error) { return runSpec(vec2d, c) },
	"strings-2k":  func(c config) (*outcome, error) { return runSpec(strings2k, c) },
	"serve-mixed": func(c config) (*outcome, error) { return runSpec(serveMixed, c) },
}

// vec2d is the ROADMAP's headline cell: the Cardinality-axiom scene of
// Fig. 2, 10,000 Gaussian inliers plus a 100- and a 10-point microcluster.
var vec2d = spec[[]float64]{
	gen: func(seed int64, size float64) inputs[[]float64] {
		n := scaled(10000, size)
		ax := data.AxiomDataset(data.Gaussian, data.Cardinality, n, seed)
		fresh := data.AxiomDataset(data.Gaussian, data.Cardinality, 10000, seed+1)
		return inputs[[]float64]{
			items: ax.Points, labels: ax.Labels, planted: [][]int{ax.Red, ax.Green},
			pool: fresh.Points, poolLab: fresh.Labels,
		}
	},
	build:  mccatch.BuildVectors,
	traced: tracedVectors,
	newInc: func(inputs[[]float64]) (*mccatch.Incremental[[]float64], error) {
		return mccatch.NewIncrementalVectors(2)
	},
	oneShot:    func(_ inputs[[]float64], live [][]float64) (*mccatch.Result, error) { return mccatch.RunVectors(live) },
	rate:       500,
	batchShare: 0.5, serveShare: 0.45,
}

// strings2k is the paper's nondimensional case: Last Names under the
// Levenshtein distance, 2,000 inlier surnames plus 20 foreign ones.
var strings2k = spec[string]{
	gen: func(seed int64, size float64) inputs[string] {
		n := scaled(2000, size)
		ln := data.LastNames(n, n/100, seed)
		fresh := data.LastNames(2000, 20, seed+1)
		return inputs[string]{items: ln.Words, labels: ln.Labels, pool: fresh.Words, poolLab: fresh.Labels}
	},
	build:  mccatch.BuildStrings,
	traced: tracedStrings,
	newInc: func(in inputs[string]) (*mccatch.Incremental[string], error) {
		return mccatch.NewIncremental(mccatch.Levenshtein, wordCost(in))
	},
	oneShot: func(in inputs[string], live []string) (*mccatch.Result, error) {
		return mccatch.Run(live, mccatch.Levenshtein, wordCost(in))
	},
	rate:       150,
	batchShare: 0.5, serveShare: 0.45,
}

// wordCost fixes the serving backend's word cost over every item a
// strings run can ingest, so the one-shot reference uses the same cost.
func wordCost(in inputs[string]) mccatch.Option {
	return mccatch.DeriveWordCost(append(append([]string(nil), in.items...), in.pool...))
}

// serveMixed is the paper's network-log scene (Fig. 8(ii)) at about
// 10,000 connections, served while it changes.
var serveMixed = spec[[]float64]{
	gen: func(seed int64, size float64) inputs[[]float64] {
		h := data.HTTPLike(size*10000/222027, seed)
		fresh := data.HTTPLike(10000.0/222027, seed+1)
		return inputs[[]float64]{items: h.Points, labels: h.Labels, pool: fresh.Points, poolLab: fresh.Labels}
	},
	traced: tracedVectors,
	newInc: func(inputs[[]float64]) (*mccatch.Incremental[[]float64], error) {
		return mccatch.NewIncrementalVectors(3)
	},
	oneShot:    func(_ inputs[[]float64], live [][]float64) (*mccatch.Result, error) { return mccatch.RunVectors(live) },
	rate:       500,
	serveShare: 0.5,
}

func scaled(n int, size float64) int {
	if m := int(float64(n) * size); m >= 20 {
		return m
	}
	return 20
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// runSpec runs one workload: set-up (repeated), the batch phase, the
// open-loop serving phase and the uncached-detect phase, checking every
// output on the way.
func runSpec[T any](s spec[T], cfg config) (*outcome, error) {
	out := &outcome{}
	n := max(int(s.rate*s.serveShare*cfg.seconds), 1) // open-loop requests
	warm := warmCount(n)

	// The serial reference comes first, before the set-ups, so neither
	// set-up time nor the set-ups' memory includes it.
	in := s.gen(cfg.seed, cfg.size)
	if warm > len(in.pool) {
		return nil, fmt.Errorf("pool of %d items is smaller than the %d warm items", len(in.pool), warm)
	}
	var ref *mccatch.Result
	if s.build != nil {
		var err error
		if ref, err = reference(s.build, in.items); err != nil {
			return nil, err
		}
	}

	var (
		sess   *session[T]
		setups []float64
	)
	for r := 0; r < setupReps; r++ {
		if sess != nil {
			if err := sess.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // so one set-up does not stack on the previous one's heap
		t0 := time.Now()
		in = s.gen(cfg.seed, cfg.size)
		if s.build != nil {
			if _, err := batchOp(s.build, in.items); err != nil {
				return nil, fmt.Errorf("warm-up op: %w", err)
			}
		}
		var err error
		if sess, err = startSession(func() (*mccatch.Incremental[T], error) { return s.newInc(in) }, in.items, in.pool[:warm], cfg.trace); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sess.stop()
	runEnd := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))

	// The batch phase: one op is build + detect + close.
	var auroc float64
	var pipe, allocs []float64
	var traces []opTrace
	var untracedPipe []float64
	if s.build != nil {
		auroc = eval.AUROC(ref.PointScores, in.labels)
		runtime.GC() // start each timed phase without the previous one's garbage
		end := time.Now().Add(time.Duration(s.batchShare * cfg.seconds * float64(time.Second)))
		for len(pipe) == 0 || time.Now().Before(end) {
			h0 := readHeap()
			t0 := time.Now()
			res, err := batchOp(s.build, in.items)
			d := time.Since(t0)
			out.attempt(err, func() error { return checkBatch(res, ref, in.planted) })
			pipe = append(pipe, ms(d))
			allocs = append(allocs, mb(readHeap().totalAlloc-h0.totalAlloc))
			if cfg.trace {
				res, ot, err := tracedRun(in.items, ref.Params, s.traced)
				out.attempt(err, func() error { return checkTraced(res, ref, ot) })
				traces = append(traces, ot)
			}
		}
		untracedPipe = pipe
	}

	// The open-loop phase at the workload's fixed offered rate.
	reqs, err := plan(cfg.seed, n, in.items, in.pool[warm:], sess.preload)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	lr := sess.openLoop(reqs, s.rate)
	out.attempted += lr.attempted
	out.failed += lr.failed
	out.noteErr(lr.firstErr)
	var busy time.Duration
	var probe, sizes, inserts []float64
	if sess.traced != nil {
		busy, probe, sizes, inserts, _ = sess.traced.snapshot()
	}

	// The uncached-detect phase, with traffic stopped; a batch workload
	// runs one detect, as the serving check.
	live, liveLab := liveSet(concat(in.items, in.pool[:warm]), concat(in.labels, in.poolLab[:warm]), in.pool[warm:], in.poolLab[warm:], lr)
	var detects, detectAllocs []float64
	var last []byte
	for len(detects) == 0 || (s.build == nil && time.Now().Before(runEnd)) {
		d, alloc, body, err := sess.detectUncached(in.items[0])
		out.attempt(err, func() error {
			if last != nil && string(body) != string(last) {
				return fmt.Errorf("detect replies differ over one live set")
			}
			return nil
		})
		if err != nil {
			break
		}
		detects = append(detects, ms(d))
		detectAllocs = append(detectAllocs, mb(alloc))
		last = body
	}
	var detectEngine []float64
	if sess.traced != nil {
		_, _, _, _, detectEngine = sess.traced.snapshot()
	}
	// The peak is read here, before the one-shot check below runs a
	// second pipeline over the live set beside the server's.
	peakRSS := peakRSSMB()
	if last != nil {
		ref, err := s.oneShot(in, live)
		if err != nil {
			return nil, err
		}
		var got mccatch.Result
		out.attempt(nil, func() error { return checkServed(last, &got, ref) })
		if s.build == nil {
			auroc = eval.AUROC(got.PointScores, liveLab)
			pipe, allocs = detects, detectAllocs
			if cfg.trace {
				// The serving workload's pipeline layers come from traced
				// one-shot runs over its final live set, paired with
				// untraced ones for the overhead.
				for range 2 {
					t0 := time.Now()
					if _, err := s.oneShot(in, live); err != nil {
						return nil, err
					}
					untracedPipe = append(untracedPipe, ms(time.Since(t0)))
					res, ot, err := tracedRun(live, ref.Params, s.traced)
					out.attempt(err, func() error { return checkTraced(res, ref, ot) })
					traces = append(traces, ot)
				}
			}
		}
	}

	if !cfg.trace {
		out.add("setup_s", median(setups), "s")
		v, pct, cnt := tail(pipe)
		out.add("pipeline_p50_ms", median(pipe), "ms")
		out.addTail("pipeline_tail_ms", v, pct, cnt)
		out.add("alloc_mb", median(allocs), "MB")
		out.add("peak_rss_mb", peakRSS, "MB")
		out.add("auroc", auroc, "ratio")
		out.add("score_p50_ms", median(lr.score), "ms")
		out.add("ingest_p50_ms", median(lr.ingest), "ms")
		return out, nil
	}
	addLayers(out, traces, untracedPipe)
	scoreP50, probeP50 := median(lr.score), median(probe)
	out.add("serve.probe_batch_ms", probeP50, "ms")
	out.add("serve.batch_size", mean(sizes), "count")
	out.add("serve.wait_ms", scoreP50-probeP50, "ms")
	out.add("serve.insert_ms_p50", median(inserts), "ms")
	out.add("serve.insert_ms_max", quantile(inserts, 1), "ms")
	out.add("serve.detect_ms", median(detectEngine), "ms")
	out.add("serve.engine_busy", busy.Seconds()/lr.wall.Seconds(), "ratio")
	v, pct, cnt := tail(lr.score)
	out.addTail("loadgen.score_tail_ms", v, pct, cnt)
	out.add("loadgen.late_p99_ms", quantile(lr.late, 0.99), "ms")
	out.add("loadgen.backlog_max", float64(lr.backlogMax), "count")
	return out, nil
}

// batchOp is one batch operation: build, detect, close.
func batchOp[T any](build func([]T, ...mccatch.Option) (*mccatch.Detector[T], error), items []T, opts ...mccatch.Option) (*mccatch.Result, error) {
	d, err := build(items, opts...)
	if err != nil {
		return nil, err
	}
	res, err := d.Detect()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// reference is the serial run every batch op must equal, with its
// worker count reset to the default the timed ops run with.
func reference[T any](build func([]T, ...mccatch.Option) (*mccatch.Detector[T], error), items []T) (*mccatch.Result, error) {
	ref, err := batchOp(build, items, mccatch.WithWorkers(1))
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	ref.Params.Workers = 0
	return ref, nil
}

// checkBatch requires res to deep-equal the serial reference and to
// report every planted microcluster exactly.
func checkBatch(res, ref *mccatch.Result, planted [][]int) error {
	if !reflect.DeepEqual(res, ref) {
		return fmt.Errorf("result differs from the serial reference")
	}
	for _, want := range planted {
		if !hasCluster(res, want) {
			return fmt.Errorf("planted %d-member microcluster not recovered", len(want))
		}
	}
	return nil
}

func hasCluster(res *mccatch.Result, members []int) bool {
	want := append([]int(nil), members...)
	sort.Ints(want)
	for _, mc := range res.Microclusters {
		if reflect.DeepEqual(mc.Members, want) {
			return true
		}
	}
	return false
}

// checkTraced requires the traced Result to deep-equal the untraced one
// and the child spans to fit inside the pipeline span.
func checkTraced(res, ref *mccatch.Result, ot opTrace) error {
	if !reflect.DeepEqual(res, ref) {
		return fmt.Errorf("traced result differs from the untraced one")
	}
	if ot.coreSelf < 0 {
		return fmt.Errorf("child spans exceed the pipeline span by %v", -ot.coreSelf)
	}
	return nil
}

// checkServed decodes a /v1/detect reply into got and requires its
// scores and microclusters to equal the one-shot run over the live set.
func checkServed(body []byte, got, ref *mccatch.Result) error {
	if err := json.Unmarshal(body, got); err != nil {
		return fmt.Errorf("detect reply: %w", err)
	}
	if !reflect.DeepEqual(got.PointScores, ref.PointScores) {
		return fmt.Errorf("served scores differ from a one-shot run over the live set")
	}
	if len(got.Microclusters) != len(ref.Microclusters) || (len(ref.Microclusters) > 0 && !reflect.DeepEqual(got.Microclusters, ref.Microclusters)) {
		return fmt.Errorf("served microclusters differ from a one-shot run over the live set")
	}
	return nil
}

// addLayers reports the per-layer medians over the traced runs.
func addLayers(out *outcome, traces []opTrace, untracedPipe []float64) {
	pick := func(f func(opTrace) float64) float64 {
		xs := make([]float64, len(traces))
		for i, ot := range traces {
			xs[i] = f(ot)
		}
		return median(xs)
	}
	dur := func(f func(opTrace) time.Duration) float64 {
		return pick(func(ot opTrace) float64 { return ms(f(ot)) })
	}
	out.add("index.build_full_ms", dur(func(o opTrace) time.Duration { return o.buildFull }), "ms")
	out.add("index.build_inlier_ms", dur(func(o opTrace) time.Duration { return o.buildInlier }), "ms")
	out.add("index.build_gel_ms", dur(func(o opTrace) time.Duration { return o.buildGel }), "ms")
	out.add("index.diameter_ms", dur(func(o opTrace) time.Duration { return o.diameter }), "ms")
	out.add("join.self_ms", dur(func(o opTrace) time.Duration { return o.self }), "ms")
	out.add("join.self_cpu_ms", dur(func(o opTrace) time.Duration { return o.selfCPU }), "ms")
	out.add("join.self_alloc_mb", pick(func(o opTrace) float64 { return mb(o.selfAlloc) }), "MB")
	out.add("join.self_speedup", pick(func(o opTrace) float64 { return ratio(o.selfSerial, o.self) }), "ratio")
	out.add("join.gel_ms", dur(func(o opTrace) time.Duration { return o.gel }), "ms")
	out.add("join.gel_probes", pick(func(o opTrace) float64 { return float64(o.gelProbes) }), "count")
	out.add("join.gel_hits", pick(func(o opTrace) float64 { return float64(o.gelHits) }), "count")
	out.add("join.bridge_ms", dur(func(o opTrace) time.Duration { return o.bridge }), "ms")
	out.add("join.bridge_queries", pick(func(o opTrace) float64 { return float64(o.bridgeQueries) }), "count")
	out.add("core.self_ms", dur(func(o opTrace) time.Duration { return o.coreSelf }), "ms")
	out.add("metric.evals_build", pick(func(o opTrace) float64 { return float64(o.evalsBuild) }), "count")
	out.add("metric.evals_self", pick(func(o opTrace) float64 { return float64(o.evalsSelf) }), "count")
	out.add("metric.evals_gel", pick(func(o opTrace) float64 { return float64(o.evalsGel) }), "count")
	out.add("metric.evals_bridge", pick(func(o opTrace) float64 { return float64(o.evalsBridge) }), "count")
	out.add("pipeline.cpu_util", pick(func(o opTrace) float64 { return ratio(o.cpu, o.pipeline) }), "ratio")
	out.add("pipeline.gc_cycles", pick(func(o opTrace) float64 { return float64(o.gcCycles) }), "count")
	traced := dur(func(o opTrace) time.Duration { return o.pipeline })
	out.add("trace.overhead_pct", 100*(traced/median(untracedPipe)-1), "%")
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// concat returns a new slice holding a's elements, then b's.
func concat[T any](a, b []T) []T { return append(append([]T(nil), a...), b...) }

func mb(b uint64) float64 { return float64(b) / 1e6 }

// nproc is the CPU count the client connections are capped at.
var nproc = runtime.NumCPU()
