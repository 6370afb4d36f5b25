package main

import (
	"sync"
	"sync/atomic"
	"time"

	"mccatch"
	"mccatch/internal/core"
	"mccatch/internal/index"
	"mccatch/internal/metric"
	"mccatch/internal/rtree"
	"mccatch/internal/serve"
	"mccatch/internal/slimtree"
)

// tracer records the spans of one traced pipeline run from outside the
// program: the benchmark builds the trees through a timing builder, wraps
// each tree in a forwarding decorator, and hands both to
// core.RunPrebuilt. The pipeline calls the decorated trees one step at a
// time, so every span except the gel probes (which the join issues from
// several workers at once) is a plain sequential call.
type tracer struct {
	evals atomic.Int64 // metric evaluations, counted by the traced metric

	mu    sync.Mutex
	trees []*treeRec // every tree built, the full tree first

	diameter, self, bridge time.Duration
	selfCPU                time.Duration
	selfAlloc              uint64
	bridgeQueries          int
	evalsDiameter          int64
	evalsSelf, evalsBridge int64

	selfReplay func() // the self-join on the untraced tree, serially
}

// treeRec is one built tree: its build span and, for a gel tree, the
// window and volume of the range probes it answered.
type treeRec struct {
	build      time.Duration
	buildEvals int64
	inlier     bool // received Step IV's bridge join

	probes, hits          atomic.Int64
	firstProbe, lastProbe atomic.Int64 // UnixNano; 0 = no probe yet
}

// timeBuild runs build and records it as a new tree.
func (tr *tracer) timeBuild(build func()) *treeRec {
	e0 := tr.evals.Load()
	t0 := time.Now()
	build()
	rec := &treeRec{build: time.Since(t0), buildEvals: tr.evals.Load() - e0}
	tr.mu.Lock()
	tr.trees = append(tr.trees, rec)
	tr.mu.Unlock()
	return rec
}

func (tr *tracer) diameterSpan(f func() float64) float64 {
	e0 := tr.evals.Load()
	t0 := time.Now()
	l := f()
	tr.diameter += time.Since(t0)
	tr.evalsDiameter += tr.evals.Load() - e0
	return l
}

func (tr *tracer) selfSpan(radii []float64, workers int, f func([]float64, int) [][]int) [][]int {
	e0 := tr.evals.Load()
	h0, c0, t0 := readHeap(), cpuTime(), time.Now()
	counts := f(radii, workers)
	tr.self += time.Since(t0)
	tr.selfCPU += cpuTime() - c0
	tr.selfAlloc += readHeap().totalAlloc - h0.totalAlloc
	tr.evalsSelf += tr.evals.Load() - e0
	tr.selfReplay = func() { f(radii, 1) }
	return counts
}

func (tr *tracer) bridgeSpan(rec *treeRec, queries int, f func() []int) []int {
	rec.inlier = true
	e0 := tr.evals.Load()
	t0 := time.Now()
	firsts := f()
	tr.bridge += time.Since(t0)
	tr.bridgeQueries += queries
	tr.evalsBridge += tr.evals.Load() - e0
	return firsts
}

// probeSpan times one gel range probe; probes run concurrently, so the
// tree keeps the window from the first start to the last end.
func probeSpan(rec *treeRec, f func() []int, before int) []int {
	start := time.Now().UnixNano()
	rec.firstProbe.CompareAndSwap(0, start)
	ids := f()
	end := time.Now().UnixNano()
	for {
		last := rec.lastProbe.Load()
		if end <= last || rec.lastProbe.CompareAndSwap(last, end) {
			break
		}
	}
	rec.probes.Add(1)
	rec.hits.Add(int64(len(ids) - before))
	return ids
}

// traceR decorates an R-tree. Embedding forwards every method, so the
// decorator implements exactly the optional index interfaces the R-tree
// does; only the calls that open a pipeline span are intercepted.
type traceR struct {
	*rtree.Tree
	tr  *tracer
	rec *treeRec
}

func (d traceR) DiameterEstimate() float64 { return d.tr.diameterSpan(d.Tree.DiameterEstimate) }

func (d traceR) CountAllMulti(radii []float64, workers int) [][]int {
	return d.tr.selfSpan(radii, workers, d.Tree.CountAllMulti)
}

func (d traceR) RangeQueryAppend(q []float64, r float64, dst []int) []int {
	return probeSpan(d.rec, func() []int { return d.Tree.RangeQueryAppend(q, r, dst) }, len(dst))
}

func (d traceR) BridgeFirsts(queries [][]float64, radii []float64, workers int) []int {
	return d.tr.bridgeSpan(d.rec, len(queries), func() []int { return d.Tree.BridgeFirsts(queries, radii, workers) })
}

// traceSlim decorates a slim-tree over strings, like traceR.
type traceSlim struct {
	*slimtree.Tree[string]
	tr  *tracer
	rec *treeRec
}

func (d traceSlim) DiameterEstimate() float64 { return d.tr.diameterSpan(d.Tree.DiameterEstimate) }

func (d traceSlim) CountAllMulti(radii []float64, workers int) [][]int {
	return d.tr.selfSpan(radii, workers, d.Tree.CountAllMulti)
}

func (d traceSlim) RangeQueryAppend(q string, r float64, dst []int) []int {
	return probeSpan(d.rec, func() []int { return d.Tree.RangeQueryAppend(q, r, dst) }, len(dst))
}

func (d traceSlim) BridgeFirsts(queries []string, radii []float64, workers int) []int {
	return d.tr.bridgeSpan(d.rec, len(queries), func() []int { return d.Tree.BridgeFirsts(queries, radii, workers) })
}

// tracedVectors is the traced counterpart of BuildVectors' R-tree builder
// under the Result's resolved params.
func tracedVectors(tr *tracer, p core.Params) index.Builder[[]float64] {
	return func(sub [][]float64) index.Index[[]float64] {
		var t *rtree.Tree
		rec := tr.timeBuild(func() { t = rtree.NewWithWorkers(sub, 0, p.Workers) })
		return traceR{t, tr, rec}
	}
}

// tracedStrings is the traced counterpart of BuildStrings' slim-tree
// builder, over a Levenshtein distance that counts its evaluations.
func tracedStrings(tr *tracer, p core.Params) index.Builder[string] {
	dist := func(a, b string) float64 {
		tr.evals.Add(1)
		return metric.Levenshtein(a, b)
	}
	inner := core.SlimBuilder(dist, p)
	return func(sub []string) index.Index[string] {
		var t index.Index[string]
		rec := tr.timeBuild(func() { t = inner(sub) })
		return traceSlim{t.(*slimtree.Tree[string]), tr, rec}
	}
}

// opTrace is the per-layer breakdown of one traced pipeline run.
type opTrace struct {
	pipeline, cpu                     time.Duration
	gcCycles                          uint32
	buildFull, buildInlier, buildGel  time.Duration
	diameter, self, gel, bridge       time.Duration
	selfCPU                           time.Duration
	selfAlloc                         uint64
	selfSerial                        time.Duration
	gelProbes, gelHits, bridgeQueries int64
	evalsBuild, evalsSelf, evalsGel   int64
	evalsBridge                       int64
	coreSelf                          time.Duration
}

// tracedRun runs the pipeline over items through traced trees with the
// untraced run's params p — the full build, then core.RunPrebuilt — and
// returns its Result with the span breakdown. The self-join is replayed
// serially on the same tree afterwards, outside the pipeline span.
func tracedRun[T any](items []T, p core.Params, traced func(*tracer, core.Params) index.Builder[T]) (*mccatch.Result, opTrace, error) {
	tr := &tracer{}
	builder := traced(tr, p)
	h0, c0, t0 := readHeap(), cpuTime(), time.Now()
	full := builder(items)
	res, err := core.RunPrebuilt(items, full, builder, p)
	var ot opTrace
	ot.pipeline = time.Since(t0)
	ot.cpu = cpuTime() - c0
	ot.gcCycles = readHeap().numGC - h0.numGC
	if err != nil {
		return nil, ot, err
	}
	evals := tr.evals.Load()
	if tr.selfReplay != nil {
		t1 := time.Now()
		tr.selfReplay()
		ot.selfSerial = time.Since(t1)
	}
	ot.diameter, ot.self, ot.bridge = tr.diameter, tr.self, tr.bridge
	ot.selfCPU, ot.selfAlloc = tr.selfCPU, tr.selfAlloc
	ot.bridgeQueries = int64(tr.bridgeQueries)
	ot.evalsSelf, ot.evalsBridge = tr.evalsSelf, tr.evalsBridge
	ot.evalsBuild = tr.evalsDiameter
	for k, rec := range tr.trees {
		ot.evalsBuild += rec.buildEvals
		switch {
		case k == 0:
			ot.buildFull = rec.build
		case rec.inlier:
			ot.buildInlier += rec.build
		default:
			ot.buildGel += rec.build
		}
		if f := rec.firstProbe.Load(); f != 0 {
			ot.gel += time.Duration(rec.lastProbe.Load() - f)
			ot.gelProbes += rec.probes.Load()
			ot.gelHits += rec.hits.Load()
		}
	}
	ot.evalsGel = evals - ot.evalsBuild - ot.evalsSelf - ot.evalsBridge
	ot.coreSelf = ot.pipeline - (ot.buildFull + ot.buildInlier + ot.buildGel + ot.diameter + ot.self + ot.gel + ot.bridge)
	return res, ot, nil
}

// traceBackend decorates a serving backend: embedding forwards every
// method, and the engine calls the serve layer makes per request are
// timed.
type traceBackend[T any] struct {
	serve.Backend[T]

	mu         sync.Mutex
	busy       time.Duration
	probe      []float64 // ProbeBatch wall times, ms
	batchSizes []float64
	insert     []float64 // Insert wall times, ms
	detect     []float64 // Detect wall times, ms
}

func (b *traceBackend[T]) account(t0 time.Time, list *[]float64) {
	d := time.Since(t0)
	b.mu.Lock()
	b.busy += d
	if list != nil {
		*list = append(*list, ms(d))
	}
	b.mu.Unlock()
}

func (b *traceBackend[T]) ProbeBatch(qs []T) ([][]int, []float64, error) {
	t0 := time.Now()
	counts, radii, err := b.Backend.ProbeBatch(qs)
	b.account(t0, &b.probe)
	b.mu.Lock()
	b.batchSizes = append(b.batchSizes, float64(len(qs)))
	b.mu.Unlock()
	return counts, radii, err
}

func (b *traceBackend[T]) Insert(x T) (int64, error) {
	t0 := time.Now()
	h, err := b.Backend.Insert(x)
	b.account(t0, &b.insert)
	return h, err
}

func (b *traceBackend[T]) Delete(h int64) (bool, error) {
	t0 := time.Now()
	ok, err := b.Backend.Delete(h)
	b.account(t0, nil)
	return ok, err
}

func (b *traceBackend[T]) Detect() (*mccatch.Result, uint64, error) {
	t0 := time.Now()
	res, e, err := b.Backend.Detect()
	b.account(t0, &b.detect)
	return res, e, err
}

func (b *traceBackend[T]) Epoch() uint64 {
	t0 := time.Now()
	e := b.Backend.Epoch()
	b.account(t0, nil)
	return e
}

func (b *traceBackend[T]) Radii() []float64 {
	t0 := time.Now()
	r := b.Backend.Radii()
	b.account(t0, nil)
	return r
}

func (b *traceBackend[T]) Size() int {
	t0 := time.Now()
	n := b.Backend.Size()
	b.account(t0, nil)
	return n
}

// snapshot returns copies of the recorded samples and the busy time, and
// resets them, so phases measure separately.
func (b *traceBackend[T]) snapshot() (busy time.Duration, probe, sizes, insert, detect []float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	busy, probe, sizes, insert, detect = b.busy, b.probe, b.batchSizes, b.insert, b.detect
	b.busy, b.probe, b.batchSizes, b.insert, b.detect = 0, nil, nil, nil, nil
	return
}
