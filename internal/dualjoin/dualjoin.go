// Package dualjoin provides the machinery shared by the dual-tree joins
// of the three index backends: the SELF-join (index.SelfMultiCounter —
// every indexed element's neighbor counts at every radius) and the
// CROSS-join (index.CrossMultiCounter — for every query of a second set,
// the first radius with an indexed neighbor). Both walk the full radius
// schedule once with per-pair window narrowing; what lives here is
// everything the traversals share: the credit accumulators, their
// per-worker scheduling across traversal units, the commutative merges,
// the window-narrowing step, and the min/max bounds between bounding
// boxes.
//
// Since the backends moved to flat arena layouts, every tree identifies
// its nodes by dense int32 indices and stores the elements under a
// subtree as ONE contiguous range of "positions" (the arena's packed
// element order). The accumulators exploit both: credits address flat
// rows by position or node index — no maps, no pointer keys — and a
// wholesale subtree credit is pushed down by a linear walk over the
// node's position range, shared here instead of re-implemented as a
// recursion in every backend.
//
// Memory model: each of the w workers (w = min(Workers(workers), units))
// credits into its own private int32 matrix of (n+nodes)·(a+1) entries,
// allocated on that worker's first traversal unit; the w matrices are
// summed once after the traversal. So a join holds at most w private
// matrices and takes no lock. int32 cannot overflow: a pair credits an
// element at most once per radius index, so each difference entry (and
// every partial sum of one) has magnitude at most the size of the
// counted set, whose positions are already int32. Credits are
// commutative integer adds, so the result is identical for every worker
// count and unit schedule.
package dualjoin

import (
	"sync"

	"mccatch/internal/kernel"
	"mccatch/internal/parallel"
)

// Acc is one worker's credit sink: element position p's difference row
// is Point[p*Stride:], node d's wholesale row is Node[d*Stride:].
// Crediting sits in the innermost loop of every join, so the rows are
// exported raw and the backends' hottest credit sites write the two row
// adds directly; CreditPos/CreditNode are the same adds for the rest.
type Acc struct {
	Stride      int // len(radii) + 1
	Point, Node []int32
}

// CreditPos adds cnt to the element position's count at every radius in
// [from, to).
func (a *Acc) CreditPos(pos int32, from, to, cnt int) {
	row := a.Point[int(pos)*a.Stride:]
	row[from] += int32(cnt)
	row[to] -= int32(cnt)
}

// CreditNode adds cnt wholesale to every element under node at every
// radius in [from, to); the range is pushed down to the node's positions
// during the final merge.
func (a *Acc) CreditNode(node int32, from, to, cnt int) {
	row := a.Node[int(node)*a.Stride:]
	row[from] += int32(cnt)
	row[to] -= int32(cnt)
}

// perWorker runs units traversal units across the worker budget, giving
// each worker index one private accumulator, made by fresh on that
// worker's first unit, and returns them. A worker that drew no unit
// leaves a nil entry. Both joins accumulate this way, so neither ever
// holds more than min(Workers(workers), units) accumulators.
func perWorker[A any](workers, units int, fresh func() *A, visit func(u int, acc *A)) []*A {
	accs := make([]*A, min(parallel.Workers(workers), units))
	parallel.ForWorker(workers, units, func(g, u int) {
		if accs[g] == nil {
			accs[g] = fresh()
		}
		visit(u, accs[g])
	})
	return accs
}

// CountMatrix runs units traversal units across the worker budget and
// assembles counts[e][id] for a radii, n element positions and nodes
// arena nodes. visit performs unit u's traversal, crediting into acc;
// elemRange returns the contiguous position range [first, last) of the
// elements under a node (the arena layouts guarantee contiguity), and
// idOf maps a position to its element id. Each worker index owns one
// private Acc, so at most min(Workers(workers), units) matrices of
// (n+nodes)·(a+1) int32s exist; they are summed once at the end.
// Credits are commutative integer adds, so the result is identical for
// every worker count.
func CountMatrix(a, n, nodes, workers, units int,
	visit func(u int, acc *Acc),
	elemRange func(node int32) (int32, int32),
	idOf func(pos int32) int) [][]int {

	counts := make([][]int, a)
	for e := range counts {
		counts[e] = make([]int, n)
	}
	if a == 0 || n == 0 || units == 0 {
		return counts
	}
	stride := a + 1
	accs := perWorker(workers, units, func() *Acc {
		return &Acc{Stride: stride,
			Point: make([]int32, n*stride), Node: make([]int32, nodes*stride)}
	}, visit)
	// Sum every worker's matrix into the first one.
	var m *Acc
	for _, ac := range accs {
		if ac == nil {
			continue
		}
		if m == nil {
			m = ac
			continue
		}
		for i, v := range ac.Point {
			m.Point[i] += v
		}
		for i, v := range ac.Node {
			m.Node[i] += v
		}
	}

	// Push the wholesale node credits down to their contiguous position
	// ranges, then prefix-sum each position's difference row into the
	// id-keyed result.
	for d := 0; d < nodes; d++ {
		row := m.Node[d*stride : d*stride+stride]
		dirty := false
		for _, v := range row {
			if v != 0 {
				dirty = true
				break
			}
		}
		if !dirty {
			continue
		}
		first, last := elemRange(int32(d))
		for p := first; p < last; p++ {
			dst := m.Point[int(p)*stride:]
			for k, v := range row {
				dst[k] += v
			}
		}
	}
	parallel.For(workers, n, func(p int) {
		run := 0
		row := m.Point[p*stride:]
		id := idOf(int32(p))
		for e := 0; e < a; e++ {
			run += int(row[e])
			counts[e][id] = run
		}
	})
	return counts
}

// Window narrows the radius window [lo, hi) for a pair of subtrees whose
// element distances (in whatever unit the caller's schedule uses — plain
// for metric balls, squared for box bounds) all lie in [dmin, dmax]:
// radii below the returned from cannot reach any pair, and radii at and
// above the returned settled contain every pair, so the caller can credit
// them wholesale and recurse only on [from, settled). The thresholds are
// scanned linearly — the schedule is tiny (a ≤ ~15) and both predicates
// are monotone in the radius, so the scans stop early. The cross-joins of
// every backend classify through this one function; the self-joins
// predate it and keep the same two scans inlined in their hot visit
// loops — when changing the boundary semantics here, change them there
// too (kdtree/rtree/slimtree dualjoin.go).
func Window(radii []float64, dmin, dmax float64, lo, hi int) (from, settled int) {
	for lo < hi && dmin > radii[lo] {
		lo++ // the pair is fully separated at the smallest radii
	}
	nh := lo
	for nh < hi && dmax > radii[nh] {
		nh++ // radii [nh, hi) contain every pair: settle them at once
	}
	return lo, nh
}

// sqScratch pools the squared-radius schedules of AppendMultiCounts, so
// steady-state batched probes allocate nothing.
var sqScratch = sync.Pool{
	New: func() any { s := make([]float64, 0, 16); return &s },
}

// AppendMultiCounts is the difference-array scaffolding every backend's
// RangeCountMultiAppend shares: it appends len(radii)+1 zeroed slots to
// dst (the counts plus the difference array's sentinel), hands visit the
// schedule — squared through a pooled scratch slice when squared is true
// (the box-bound backends compare squared distances), the caller's own
// schedule otherwise — along with the difference row to credit,
// prefix-sums the row and returns dst trimmed to the counts. With a warm
// dst a probe allocates zero bytes. Centralizing this here keeps the
// credit/prefix-sum semantics from diverging across the backends.
func AppendMultiCounts(radii []float64, dst []int, squared bool, visit func(sched []float64, diff []int)) []int {
	a := len(radii)
	base := len(dst)
	for i := 0; i <= a; i++ {
		dst = append(dst, 0)
	}
	diff := dst[base:]
	if a > 0 {
		if squared {
			sp := sqScratch.Get().(*[]float64)
			r2 := (*sp)[:0]
			for _, r := range radii {
				r2 = append(r2, r*r)
			}
			visit(r2, diff)
			*sp = r2
			sqScratch.Put(sp)
		} else {
			visit(radii, diff)
		}
	}
	for e := 1; e < a; e++ {
		diff[e] += diff[e-1]
	}
	return dst[:base+a]
}

// SqMinMaxPointBox returns the smallest and largest SQUARED Euclidean
// distances from point q to the axis-aligned box [lo, hi]. The
// implementation lives in internal/kernel with the rest of the distance
// kernels; this wrapper (which inlines to a direct call) keeps the
// historical dualjoin API for callers outside the backends.
func SqMinMaxPointBox(q, lo, hi []float64) (smin, smax float64) {
	return kernel.SqMinMaxPointBox(q, lo, hi)
}

// SqMinMaxBoxBox returns the smallest and largest SQUARED Euclidean
// distances between any two points of the axis-aligned boxes [alo, ahi]
// and [blo, bhi]; see kernel.SqMinMaxBoxBox.
func SqMinMaxBoxBox(alo, ahi, blo, bhi []float64) (smin, smax float64) {
	return kernel.SqMinMaxBoxBox(alo, ahi, blo, bhi)
}

// SqBoxDiag is the squared diagonal of the box [lo, hi]; see
// kernel.SqBoxDiag.
func SqBoxDiag(lo, hi []float64) float64 {
	return kernel.SqBoxDiag(lo, hi)
}
