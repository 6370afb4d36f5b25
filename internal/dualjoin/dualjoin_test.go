package dualjoin

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// The backends' equivalence suites prove the joins end to end; these
// tests pin the shared machinery's own contracts — window narrowing,
// box bounds, the two per-worker accumulator merges, and the self-join's
// bound of at most one private matrix per worker — directly, so a future
// backend gets them pre-verified.

func TestWindow(t *testing.T) {
	radii := []float64{1, 2, 4, 8}
	cases := []struct {
		dmin, dmax   float64
		lo, hi       int
		from, settle int
	}{
		{0, 0.5, 0, 4, 0, 0}, // settles everywhere immediately
		{0, 100, 0, 4, 0, 4}, // straddles the whole schedule
		{3, 3, 0, 4, 2, 2},   // a single distance: its bucket
		{9, 10, 0, 4, 4, 4},  // beyond every radius: empty window
		{0, 5, 2, 4, 2, 3},   // only the suffix is open
		{1.5, 3, 1, 1, 1, 1}, // empty incoming window stays empty
		{1, 1, 0, 4, 0, 0},   // dmin == radius: inclusive, not separated
	}
	for i, c := range cases {
		from, settle := Window(radii, c.dmin, c.dmax, c.lo, c.hi)
		if from != c.from || settle != c.settle {
			t.Errorf("case %d: Window([%v,%v], [%d,%d)) = (%d, %d), want (%d, %d)",
				i, c.dmin, c.dmax, c.lo, c.hi, from, settle, c.from, c.settle)
		}
	}
}

func TestSqMinMaxBoxBox(t *testing.T) {
	// Disjoint boxes on one axis: gap 2, farthest corners 7 apart.
	smin, smax := SqMinMaxBoxBox([]float64{0}, []float64{1}, []float64{3}, []float64{7})
	if smin != 4 || smax != 49 {
		t.Errorf("disjoint: (%v, %v), want (4, 49)", smin, smax)
	}
	// Identical boxes degenerate to (0, squared diagonal).
	lo, hi := []float64{0, 0}, []float64{3, 4}
	smin, smax = SqMinMaxBoxBox(lo, hi, lo, hi)
	if smin != 0 || smax != 25 {
		t.Errorf("self: (%v, %v), want (0, 25)", smin, smax)
	}
	if d := SqBoxDiag(lo, hi); d != 25 {
		t.Errorf("SqBoxDiag = %v, want 25", d)
	}
	// Overlapping boxes: min distance 0.
	smin, _ = SqMinMaxBoxBox([]float64{0, 0}, []float64{2, 2}, []float64{1, 1}, []float64{3, 3})
	if smin != 0 {
		t.Errorf("overlapping: smin = %v, want 0", smin)
	}
}

// The synthetic arena the merge tests run on: 4 element positions with
// the identity position→id map, plus one "node" 0 covering positions
// [1, 3) — the contiguous-range contract every backend arena satisfies.
func testRange(node int32) (int32, int32) { return 1, 3 }
func testIDOf(pos int32) int              { return int(pos) }

// TestCountMatrixMergesAcrossWorkers drives CountMatrix with synthetic
// units — point credits plus a wholesale node credit — and checks the
// assembled matrix is the prefix-summed union at every worker count,
// covering both the single-accumulator serial run and the summed
// per-worker accumulators of a parallel one.
func TestCountMatrixMergesAcrossWorkers(t *testing.T) {
	const a, n, units = 3, 4, 6
	visit := func(u int, acc *Acc) {
		acc.CreditPos(int32(u%n), 0, a, 1) // each unit credits one element everywhere
		if u == 2 {
			acc.CreditNode(0, 1, a, 5) // positions 1, 2 gain 5 at radii [1, 3)
		}
	}
	var want [][]int
	for _, workers := range []int{1, 2, 8} {
		got := CountMatrix(a, n, 1, workers, units, visit, testRange, testIDOf)
		if want == nil {
			want = got
			// Spot-check the serial result itself: element 0 was credited
			// by units 0 and 4, element 1 by units 1 and 5 plus the node
			// credit from radius 1 on, elements 2 and 3 by one unit each.
			if got[0][0] != 2 || got[0][1] != 2 || got[1][1] != 7 || got[2][2] != 6 || got[0][3] != 1 {
				t.Fatalf("unexpected serial matrix %v", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: matrix %v differs from serial %v", workers, got, want)
		}
	}
	empty := CountMatrix(0, 0, 0, 1, 0, visit, testRange, testIDOf)
	if len(empty) != 0 {
		t.Errorf("degenerate CountMatrix: %v, want empty", empty)
	}
}

// TestCountMatrixRandomized floods CountMatrix with random credit
// schedules — point and node credits spread over many units, so each
// worker's accumulator serves several units and the per-worker sums must
// still merge exactly — and cross-checks every worker count against the
// brute-force union.
func TestCountMatrixRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 10; trial++ {
		a := 1 + rng.Intn(8)
		n := 1 + rng.Intn(60)
		nodes := 1 + rng.Intn(8)
		units := 1 + rng.Intn(20)
		ranges := make([][2]int32, nodes)
		for d := range ranges {
			f := rng.Intn(n)
			l := f + rng.Intn(n-f)
			ranges[d] = [2]int32{int32(f), int32(l)}
		}
		type credit struct{ pos, from, to, cnt, node int }
		perUnit := make([][]credit, units)
		want := make([][]int, a)
		for e := range want {
			want[e] = make([]int, n)
		}
		apply := func(pos, from, to, cnt int) {
			for e := from; e < to && e < a; e++ {
				want[e][pos] += cnt
			}
		}
		for u := range perUnit {
			for k := 200 + rng.Intn(400); k > 0; k-- {
				c := credit{pos: rng.Intn(n), from: rng.Intn(a), cnt: 1 + rng.Intn(3), node: -1}
				c.to = c.from + 1 + rng.Intn(a-c.from)
				if rng.Intn(8) == 0 {
					c.node = rng.Intn(nodes)
				}
				perUnit[u] = append(perUnit[u], c)
				if c.node >= 0 {
					r := ranges[c.node]
					for p := r[0]; p < r[1]; p++ {
						apply(int(p), c.from, c.to, c.cnt)
					}
				} else {
					apply(c.pos, c.from, c.to, c.cnt)
				}
			}
		}
		visit := func(u int, acc *Acc) {
			for _, c := range perUnit[u] {
				if c.node >= 0 {
					acc.CreditNode(int32(c.node), c.from, c.to, c.cnt)
				} else {
					acc.CreditPos(int32(c.pos), c.from, c.to, c.cnt)
				}
			}
		}
		elemRange := func(d int32) (int32, int32) { return ranges[d][0], ranges[d][1] }
		for _, workers := range []int{1, 3, 8} {
			got := CountMatrix(a, n, nodes, workers, units, visit, elemRange, testIDOf)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d workers=%d: matrix differs from brute force", trial, workers)
			}
		}
	}
}

// TestCountMatrixMemoryBound pins the self-join's memory model: a call
// allocates at most one private int32 matrix of (n+nodes)·(a+1) entries
// per worker index — min(w, units) of them — plus the [][]int result and
// a small constant for scheduling, whatever the worker count.
func TestCountMatrixMemoryBound(t *testing.T) {
	const a, n, nodes, units = 15, 4096, 4096, 64
	const slack = 64 << 10
	visit := func(u int, acc *Acc) {
		acc.CreditPos(int32(u), 0, a, 1)
		acc.CreditNode(int32(u), 1, a, 2)
	}
	elemRange := func(d int32) (int32, int32) { return d, d + 1 }
	result := a*n*8 + a*24 + 24 // counts rows plus their slice headers
	for _, workers := range []int{1, 2, 8} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		counts := CountMatrix(a, n, nodes, workers, units, visit, elemRange, testIDOf)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(counts)
		bound := min(workers, units)*(n+nodes)*(a+1)*4 + result + slack
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(bound) {
			t.Errorf("workers=%d: CountMatrix allocated %d bytes, bound %d", workers, got, bound)
		}
	}
}

// TestFirstMatrixMergesMinima drives FirstMatrix with synthetic units and
// checks that point credits, wholesale node credits and the sentinel all
// merge to the same minima at every worker count — including when a
// worker's accumulator is reused across many units.
func TestFirstMatrixMergesMinima(t *testing.T) {
	const a, n, units = 5, 4, 16
	visit := func(u int, acc *MinAcc) {
		if b := int32(4 - u%5); b < acc.Best[0] {
			acc.Best[0] = b // element 0: repeated credits, min 0
		}
		if u == 3 && 2 < acc.NodeBest[0] {
			acc.NodeBest[0] = 2 // elements 1, 2: bound 2 wholesale
		}
		if u == 7 && 3 < acc.NodeBest[0] {
			acc.NodeBest[0] = 3 // worse wholesale bound must not win
		}
		// Element 3 never credited: stays at the sentinel.
	}
	want := []int{0, 2, 2, a}
	for _, workers := range []int{1, 2, 8} {
		got := FirstMatrix(a, n, 1, workers, units, visit, testRange, testIDOf)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: firsts %v, want %v", workers, got, want)
		}
	}
	if got := FirstMatrix(a, 0, 0, 1, units, visit, testRange, testIDOf); len(got) != 0 {
		t.Errorf("no queries: %v, want empty", got)
	}
	if got := FirstMatrix(a, n, 1, 1, 0, visit, testRange, testIDOf); !reflect.DeepEqual(got, []int{a, a, a, a}) {
		t.Errorf("no units: %v, want all-sentinel", got)
	}
}

// TestFirstMatrixRandomizedAgainstSerial cross-checks the per-worker merge on
// random credit schedules: whatever the unit/worker interleaving, the
// result equals the brute-force minimum of all credits.
func TestFirstMatrixRandomizedAgainstSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		a := 1 + rng.Intn(12)
		n := 1 + rng.Intn(40)
		units := rng.Intn(30)
		type credit struct{ id, b int }
		perUnit := make([][]credit, units)
		want := make([]int, n)
		for i := range want {
			want[i] = a
		}
		for u := range perUnit {
			for k := rng.Intn(6); k > 0; k-- {
				c := credit{id: rng.Intn(n), b: rng.Intn(a)}
				perUnit[u] = append(perUnit[u], c)
				if c.b < want[c.id] {
					want[c.id] = c.b
				}
			}
		}
		visit := func(u int, acc *MinAcc) {
			for _, c := range perUnit[u] {
				if int32(c.b) < acc.Best[c.id] {
					acc.Best[c.id] = int32(c.b)
				}
			}
		}
		noNodes := func(int32) (int32, int32) { t.Fatal("no node credits in this trial"); return 0, 0 }
		for _, workers := range []int{1, 3} {
			got := FirstMatrix(a, n, 0, workers, units, visit, noNodes, testIDOf)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d workers=%d: %v, want %v", trial, workers, got, want)
			}
		}
	}
}
