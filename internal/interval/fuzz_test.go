package interval

import (
	"math"
	"testing"

	"topk/internal/core"
)

// FuzzTreeOps drives random insert/delete/query sequences against a slice
// oracle. Byte quads encode operations; coordinates are small integers so
// endpoint collisions (the interval tree's trickiest case) are frequent.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 2, 5, 1, 0, 2, 5, 2, 2, 0, 0, 3})
	f.Add([]byte{0, 1, 1, 1, 1, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, err := NewTree[Interval](nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var live []core.Item[Interval]
		nextW := 1.0
		for i := 0; i+3 < len(data); i += 4 {
			op := data[i] % 3
			a, b := float64(data[i+1]%16), float64(data[i+2]%16)
			if a > b {
				a, b = b, a
			}
			switch op {
			case 0:
				it := core.Item[Interval]{Value: Interval{Lo: a, Hi: b}, Weight: nextW}
				nextW++
				tree.Insert(it)
				live = append(live, it)
			case 1:
				if len(live) == 0 {
					continue
				}
				idx := int(data[i+3]) % len(live)
				if !tree.Delete(live[idx]) {
					t.Fatalf("delete of live weight %v failed", live[idx].Weight)
				}
				live[idx] = live[len(live)-1]
				live = live[:len(live)-1]
			case 2:
				q := float64(data[i+3]%20) * 0.9
				want := 0
				bestW := math.Inf(-1)
				for _, it := range live {
					if it.Value.Contains(q) {
						want++
						if it.Weight > bestW {
							bestW = it.Weight
						}
					}
				}
				got := 0
				tree.ReportAbove(noIO, q, math.Inf(-1), func(it core.Item[Interval]) bool {
					if !it.Value.Contains(q) {
						t.Fatalf("emitted non-containing interval %+v for q=%v", it.Value, q)
					}
					got++
					return true
				})
				if got != want {
					t.Fatalf("q=%v: reported %d, want %d", q, got, want)
				}
				m, ok := tree.MaxItem(noIO, q)
				if ok != (want > 0) || (ok && m.Weight != bestW) {
					t.Fatalf("q=%v: max (%v,%v), want (%v,%v)", q, m.Weight, ok, bestW, want > 0)
				}
				if c := tree.Count(noIO, q); c != want {
					t.Fatalf("q=%v: Count=%d, want %d", q, c, want)
				}
			}
		}
		if tree.Len() != len(live) {
			t.Fatalf("Len=%d, live=%d", tree.Len(), len(live))
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
