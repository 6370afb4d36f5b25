package rtree

import (
	"mccatch/internal/dualjoin"
	"mccatch/internal/kernel"
)

// This file implements the dual-tree multi-radius self-join for the
// R-tree (index.SelfMultiCounter): the neighbor counts of EVERY indexed
// point at EVERY radius of a nested schedule, from one traversal of the
// tree against itself. The min/max squared distances between two MBRs
// bracket every point pair under them, so whole blocks of pairs are
// credited (or discarded) wholesale; only pairs straddling some radius
// descend, bottoming out in leaf-vs-leaf scans over the packed point
// block. The join is symmetric, so unordered node pairs are visited once
// and credited both ways. All comparisons are on squared distances — no
// math.Sqrt anywhere. Credits are flat: point credits address the packed
// element positions, and a wholesale subtree credit is the slot's
// contiguous element range. The accumulator, scheduling and merge
// machinery is internal/dualjoin's.

// boxDiag2 is the squared diagonal of slot s's MBR — the largest squared
// distance any pair of points under s can realize.
func (t *Tree) boxDiag2(s int32) float64 {
	lo, hi := t.box(s)
	return kernel.SqBoxDiag(lo, hi)
}

type dualCtx struct {
	t      *Tree
	radii2 []float64
	acc    *dualjoin.Acc
	rows   []int32 // acc.Point, written in place by the leaf scans
	stride int
}

// creditPair buckets one close point pair, crediting both positions.
func (c *dualCtx) creditPair(i, j int32, b, nh int) {
	ri := c.rows[int(i)*c.stride:]
	ri[b]++
	ri[nh]--
	rj := c.rows[int(j)*c.stride:]
	rj[b]++
	rj[nh]--
}

// scanPointRange resolves the point at packed position p against every
// point of positions [first, last) for the ambiguous window [lo, nh) by
// block kernels, crediting each close pair both ways exactly as the
// per-point loop would. No quantized prefilter here: the threshold is
// the ambiguous window's UPPER edge — the node-level box bounds already
// placed the pair blocks astride it, so per-block summary bounds almost
// never prune and their cost rivals the exact arithmetic they'd save
// (profiled at ~2x on the 10k x 8d sweep).
func (c *dualCtx) scanPointRange(p int32, first, last, lo, nh int) {
	t := c.t
	q := t.point(p)
	var d2 [leafScanChunk]float64
	r2 := c.radii2
	thr := r2[nh-1]
	for at := first; at < last; at += leafScanChunk {
		n := last - at
		if n > leafScanChunk {
			n = leafScanChunk
		}
		kernel.Dists(d2[:n], q, t.pts, at, at+n)
		for i := 0; i < n; i++ {
			if v := d2[i]; v <= thr {
				b := lo
				for v > r2[b] {
					b++
				}
				c.creditPair(p, int32(at+i), b, nh)
			}
		}
	}
}

// CountAllMulti returns counts[e][id] = the number of indexed points
// within radii[e] of point id (inclusive, so ≥ 1), for every indexed
// point and every radius of the ascending schedule radii — computed by a
// dual-tree traversal instead of per-point probes. Counts are exact.
// workers ≤ 0 means all cores, 1 means serial; the result is identical
// for every value.
func (t *Tree) CountAllMulti(radii []float64, workers int) [][]int {
	a := len(radii)
	radii2 := make([]float64, a)
	for e, r := range radii {
		radii2[e] = r * r
	}

	// Work units: the unordered pairs of the root's children (self-pairs
	// included) — up to fanout·(fanout+1)/2 of them — or the root itself
	// when it is a single leaf.
	type unit struct{ i, j int32 }
	var units []unit
	if t.sizeN > 0 {
		if t.leaf[0] {
			units = []unit{{-1, -1}}
		} else {
			for i := t.childFirst[0]; i < t.childLast[0]; i++ {
				for j := i; j < t.childLast[0]; j++ {
					units = append(units, unit{i, j})
				}
			}
		}
	}
	return dualjoin.CountMatrix(a, t.sizeN, len(t.leaf), workers, len(units),
		func(u int, acc *dualjoin.Acc) {
			c := dualCtx{t: t, radii2: radii2, acc: acc, rows: acc.Point, stride: acc.Stride}
			switch {
			case units[u].i < 0:
				c.selfVisit(0, 0, a)
			case units[u].i == units[u].j:
				c.selfVisit(units[u].i, 0, a)
			default:
				c.symVisit(units[u].i, units[u].j, 0, a)
			}
		},
		func(node int32) (int32, int32) { return t.elemFirst[node], t.elemLast[node] },
		func(pos int32) int { return int(t.ids[pos]) })
}

// selfVisit classifies the pair of subtree A with itself for the radius
// window [lo, hi). Self-pairs put the minimum distance at 0, so no radius
// ever drops from the bottom of the window.
func (c *dualCtx) selfVisit(A int32, lo, hi int) {
	t := c.t
	smax := t.boxDiag2(A)
	nh := lo
	for nh < hi && smax > c.radii2[nh] {
		nh++ // radii [nh, hi) contain every pair: settle them at once
	}
	if nh < hi {
		c.acc.CreditNode(A, nh, hi, int(t.size[A]))
	}
	if lo >= nh {
		return
	}
	if t.leaf[A] {
		last := int(t.elemLast[A])
		for i := int(t.elemFirst[A]); i < last; i++ {
			c.acc.CreditPos(int32(i), lo, nh, 1) // self-pair: d = 0
			if i+1 < last {
				c.scanPointRange(int32(i), i+1, last, lo, nh)
			}
		}
		return
	}
	for i := t.childFirst[A]; i < t.childLast[A]; i++ {
		c.selfVisit(i, lo, nh)
		for j := i + 1; j < t.childLast[A]; j++ {
			c.symVisit(i, j, lo, nh)
		}
	}
}

// symVisit classifies the unordered pair of DISJOINT subtrees (A, B) for
// the radius window [lo, hi). Every credit goes both ways, so each
// unordered pair is traversed exactly once.
func (c *dualCtx) symVisit(A, B int32, lo, hi int) {
	t := c.t
	alo, ahi := t.box(A)
	blo, bhi := t.box(B)
	smin, smax := dualjoin.SqMinMaxBoxBox(alo, ahi, blo, bhi)
	for lo < hi && smin > c.radii2[lo] {
		lo++ // the boxes are fully separated at the smallest radii
	}
	nh := lo
	for nh < hi && smax > c.radii2[nh] {
		nh++
	}
	if nh < hi {
		c.acc.CreditNode(A, nh, hi, int(t.size[B]))
		c.acc.CreditNode(B, nh, hi, int(t.size[A]))
	}
	if lo >= nh {
		return
	}
	if t.leaf[A] && t.leaf[B] {
		bFirst, bLast := int(t.elemFirst[B]), int(t.elemLast[B])
		for i := t.elemFirst[A]; i < t.elemLast[A]; i++ {
			c.scanPointRange(i, bFirst, bLast, lo, nh)
		}
		return
	}
	// Descend the internal side — the one with the larger box when both
	// are internal (ties split A, keeping the descent deterministic).
	down, other := A, B
	if t.leaf[A] || (!t.leaf[B] && t.boxDiag2(B) > t.boxDiag2(A)) {
		down, other = B, A
	}
	for ch := t.childFirst[down]; ch < t.childLast[down]; ch++ {
		c.symVisit(ch, other, lo, nh)
	}
}
