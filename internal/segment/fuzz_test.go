package segment

import (
	"reflect"
	"testing"

	"mccatch/internal/core"
	"mccatch/internal/index"
	"mccatch/internal/metric"
)

// FuzzIncrementalEquivalence decodes raw bytes into a mutation script
// (insert / delete / freeze / compact over quantized low-dim points) and
// checks the merged probe path on the final state against a fresh R-tree
// build over the live set: Live() must equal the live list the script
// tracks, DiameterEstimate must equal the fresh build's, and
// RangeCountMultiAppend must equal the fresh build's RangeCountMulti for
// every live element and a few points off the set, on the radii schedule
// a detection derives. The committed corpus lives in
// testdata/fuzz/FuzzIncrementalEquivalence/. Two entries pin exact-
// boundary rounding: a3218fb82f5fd6a2 fails when the memtable is counted
// by a raw metric scan instead of its tree, and dead-boundary fails when
// tombstones are subtracted that way instead of through the dead tree.
func FuzzIncrementalEquivalence(f *testing.F) {
	f.Add([]byte("\x02\x05incremental-mccatch-seed-corpus-0123456789"))
	f.Add([]byte{1, 3, 0, 0, 10, 20, 30, 40, 250, 251, 252, 1, 2, 3, 4, 5, 6, 7, 8, 9, 200, 100})
	f.Add([]byte("\x03\x01\xff\x00\xff\x00\xff\x00AAAABBBBCCCCDDDD\xf0\xf1\xf2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		dim := 1 + int(data[0]%3)
		memCap := 2 + int(data[1]%9)
		m := NewMutable(metric.Euclidean, rtreeBuilder, memCap)
		var handles []int64
		var live [][]float64
		rest := data[2:]
		for i := 0; i+1 < len(rest) && m.Size() < 80; {
			op := rest[i]
			i++
			switch {
			case op >= 240 && len(handles) > 0: // delete
				j := int(rest[i]) % len(handles)
				i++
				m.Delete(handles[j])
				handles = append(handles[:j], handles[j+1:]...)
				live = append(live[:j], live[j+1:]...)
			case op >= 236: // freeze
				m.Freeze()
			case op >= 232: // compact
				m.Compact()
			default: // insert, consuming dim coordinate bytes
				p := make([]float64, dim)
				for j := range p {
					if i < len(rest) {
						p[j] = 0.5 * float64(int8(rest[i]))
						i++
					}
				}
				handles = append(handles, m.Insert(p))
				live = append(live, p)
			}
		}
		if got := m.Live(); len(got) != len(live) || (len(live) > 0 && !reflect.DeepEqual(got, live)) {
			t.Fatalf("Live() = %v, script tracked %v", got, live)
		}
		if len(live) == 0 {
			t.Skip()
		}
		fresh := rtreeBuilder(live)
		l := fresh.DiameterEstimate()
		if got := m.DiameterEstimate(); got != l {
			t.Fatalf("DiameterEstimate = %v, fresh build = %v", got, l)
		}
		if l <= 0 {
			return // a detection stops at Step I: there is no radii schedule
		}
		radii := core.MakeRadii(l, core.DefaultNumRadii)

		// Off-set queries: the origin, and the first live element shifted
		// by exactly one radius along the first axis, whose distance to it
		// lands on a radius boundary.
		queries := append([][]float64{make([]float64, dim)}, live...)
		for _, e := range []int{0, len(radii) / 2, len(radii) - 1} {
			q := append([]float64(nil), live[0]...)
			q[0] += radii[e]
			queries = append(queries, q)
		}
		var got []int
		for qi, q := range queries {
			got = m.RangeCountMultiAppend(q, radii, got[:0])
			if want := index.RangeCountMulti(fresh, q, radii); !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d %v: merged counts %v, fresh build %v", qi, q, got, want)
			}
		}
	})
}
