package dualjoin

// This file holds the cross-join half of the shared machinery: where the
// self-join accumulates additive per-radius count differences (Acc /
// CountMatrix), the cross-join accumulates per-query MINIMUM radius
// indices — the first radius of the schedule at which a query of the
// outer set meets an element of the indexed set. Like the self-join's,
// the rows are flat: queries live at dense arena positions of the
// throwaway query tree and subtree bounds at its dense node indices, so
// a credit is one compare-and-store and a wholesale bound pushes down
// over the node's contiguous position range. Minima merge commutatively
// just like sums, so the same per-worker accumulators keep the result
// identical for every worker count; and because every credit is a valid
// upper bound on a query's true first index, a worker's accumulator is
// reused across its units without resetting.

// MinAcc collects one worker's bridge bounds: a flat per-query
// best-index row (by arena position) plus flat per-subtree bounds (by
// node index, pushed down to the node's positions during the final
// merge). The fields are exported raw and every backend reads and
// writes them directly — crediting sits in the innermost loop of the
// join, and the traversals also CONSULT the rows to clamp later pairs'
// windows from above (any credit is a valid upper bound, so a worker
// seeing only its own credits stays exact). Both rows start at
// len(radii), the "never meets an indexed element" sentinel.
type MinAcc struct {
	Best     []int32 // query position → smallest credited radius index
	NodeBest []int32 // query-tree node index → smallest wholesale bound
}

// FirstMatrix runs units traversal units across the worker budget, one
// private MinAcc per worker index (so at most min(Workers(workers),
// units) of them), and assembles firsts[id] — the smallest radius index
// credited to query id by any unit, or a (the sentinel) when no unit
// credited it — for a radii, n query positions and nodes query-tree
// arena nodes. visit performs unit u's traversal, crediting into acc;
// elemRange returns the contiguous position range of the queries under
// a node and idOf maps a position to its query id, exactly as in
// CountMatrix. Minima are commutative and idempotent, so the result is
// identical for every worker count and unit schedule.
func FirstMatrix(a, n, nodes, workers, units int,
	visit func(u int, acc *MinAcc),
	elemRange func(node int32) (int32, int32),
	idOf func(pos int32) int) []int {

	firsts := make([]int, n)
	for i := range firsts {
		firsts[i] = a
	}
	if n == 0 || units == 0 {
		return firsts
	}
	accs := perWorker(workers, units, func() *MinAcc {
		ac := &MinAcc{Best: make([]int32, n), NodeBest: make([]int32, nodes)}
		for i := range ac.Best {
			ac.Best[i] = int32(a)
		}
		for i := range ac.NodeBest {
			ac.NodeBest[i] = int32(a)
		}
		return ac
	}, visit)

	// Merge: minimum of the flat position rows, push the wholesale
	// subtree bounds down over their contiguous position ranges, then
	// map positions to query ids.
	best := make([]int32, n)
	for i := range best {
		best[i] = int32(a)
	}
	for _, ac := range accs {
		if ac == nil {
			continue
		}
		for p, v := range ac.Best {
			if v < best[p] {
				best[p] = v
			}
		}
		for d, b := range ac.NodeBest {
			if b >= int32(a) {
				continue
			}
			first, last := elemRange(int32(d))
			for p := first; p < last; p++ {
				if b < best[p] {
					best[p] = b
				}
			}
		}
	}
	for p, v := range best {
		firsts[idOf(int32(p))] = int(v)
	}
	return firsts
}
