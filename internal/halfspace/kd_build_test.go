package halfspace

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"topk/internal/core"
	"topk/internal/wrand"
)

// refKDBuild is the sort-based reference build: fully sort each level
// under (C[dim], W), take the median, and scan the node's whole subtree
// for its box and max weight.
func refKDBuild(items []core.Item[PtN], d, depth int) *kdnode {
	if len(items) == 0 {
		return nil
	}
	dim := depth % d
	mid := len(items) / 2
	sort.Slice(items, func(i, j int) bool { return kdCompare(&items[i], &items[j], dim) < 0 })
	nd := &kdnode{item: items[mid], box: make([]float64, 2*d), maxW: math.Inf(-1)}
	lo, hi := nd.bounds()
	for i := range lo {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	for _, it := range items {
		nd.maxW = math.Max(nd.maxW, it.Weight)
		for i, c := range it.Value.C {
			lo[i], hi[i] = math.Min(lo[i], c), math.Max(hi[i], c)
		}
	}
	nd.left = refKDBuild(items[:mid], d, depth+1)
	nd.right = refKDBuild(items[mid+1:], d, depth+1)
	return nd
}

// sameKD compares two kd subtrees node for node: item, box, max weight,
// and shape (which fixes each node's size and, by depth, split axis).
func sameKD(a, b *kdnode) error {
	if a == nil || b == nil {
		if a != b {
			return fmt.Errorf("shape differs")
		}
		return nil
	}
	if a.item.Weight != b.item.Weight || a.maxW != b.maxW || !slices.Equal(a.box, b.box) {
		return fmt.Errorf("node differs: %+v vs %+v", *a, *b)
	}
	if err := sameKD(a.left, b.left); err != nil {
		return err
	}
	return sameKD(a.right, b.right)
}

// gridPoints has integer coordinates in [0, side), so coordinates tie
// heavily on every axis and only the weight orders a split.
func gridPoints(g *wrand.RNG, n, d, side int) []core.Item[PtN] {
	ws := g.UniqueFloats(n, 1e6)
	items := make([]core.Item[PtN], n)
	for i := range items {
		c := make([]float64, d)
		for j := range c {
			c[j] = float64(g.IntN(side))
		}
		items[i] = core.Item[PtN]{Value: PtN{C: c}, Weight: ws[i]}
	}
	return items
}

// TestKDSelectionMatchesSortBuild: the selection-split build yields the
// sort-based reference tree node for node on random and on tied
// coordinates.
func TestKDSelectionMatchesSortBuild(t *testing.T) {
	g := wrand.New(11)
	cases := map[string][]core.Item[PtN]{"tied d=3": gridPoints(g, 3000, 3, 4)}
	for _, d := range []int{2, 3, 4} {
		for _, n := range []int{1, 2, 3, 7, 5000} {
			cases[fmt.Sprintf("random d=%d n=%d", d, n)] = genPointsN(g, n, d)
		}
	}
	for name, items := range cases {
		d := len(items[0].Value.C)
		kd, err := NewKDTree(items, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameKD(kd.root, refKDBuild(slices.Clone(items), d, 0)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestKDTiedCoordinatesAgainstOracle: with coordinates tied on every
// axis, reporting and max queries still agree with a full scan.
func TestKDTiedCoordinatesAgainstOracle(t *testing.T) {
	g := wrand.New(12)
	const d = 3
	items := gridPoints(g, 2000, d, 4)
	kd, err := NewKDTree(items, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		q := randHalfspace(g, d)
		q.C = g.Float64()*6 - 1
		tau := g.Float64() * 1.2e6
		var got []core.Item[PtN]
		kd.ReportAbove(noIO, q, tau, func(it core.Item[PtN]) bool {
			got = append(got, it)
			return true
		})
		core.SortByWeightDesc(got)
		want := oracleAboveN(items, q, tau)
		if len(got) != len(want) {
			t.Fatalf("q=%+v tau=%v: got %d items, want %d", q, tau, len(got), len(want))
		}
		for i := range got {
			if got[i].Weight != want[i].Weight {
				t.Fatalf("q=%+v: item %d = %v, want %v", q, i, got[i].Weight, want[i].Weight)
			}
		}
		all := oracleAboveN(items, q, math.Inf(-1))
		gm, ok := kd.MaxItem(noIO, q)
		if ok != (len(all) > 0) || (ok && gm.Weight != all[0].Weight) {
			t.Fatalf("q=%+v: max (%v, %v), oracle %d items", q, gm.Weight, ok, len(all))
		}
	}
}

// TestSelectKth: for every rank k, selectKth leaves the rank-k item at k
// with lesser items before it and greater ones after, on inputs shaped to
// upset a median-of-three pivot.
func TestSelectKth(t *testing.T) {
	g := wrand.New(13)
	shapes := map[string]func(i, n int) float64{
		"ascending":  func(i, n int) float64 { return float64(i) },
		"descending": func(i, n int) float64 { return float64(n - i) },
		"organ pipe": func(i, n int) float64 { return float64(min(i, n-i)) },
		"constant":   func(i, n int) float64 { return 1 },
		"random":     func(i, n int) float64 { return float64(g.IntN(n)) },
	}
	for name, shape := range shapes {
		for _, n := range []int{1, 2, 3, 4, 5, 17, 64, 301} {
			base := make([]core.Item[PtN], n)
			for i := range base {
				base[i] = core.Item[PtN]{Value: PtN{C: []float64{shape(i, n)}}, Weight: float64(g.IntN(1<<30))*float64(n) + float64(i)}
			}
			sorted := slices.Clone(base)
			slices.SortFunc(sorted, func(a, b core.Item[PtN]) int { return kdCompare(&a, &b, 0) })
			for k := 0; k < n; k++ {
				items := slices.Clone(base)
				selectKth(items, k, 0)
				if items[k].Weight != sorted[k].Weight {
					t.Fatalf("%s n=%d k=%d: got weight %v, want %v", name, n, k, items[k].Weight, sorted[k].Weight)
				}
				for i := range items {
					if c := kdCompare(&items[i], &items[k], 0); (i < k && c >= 0) || (i > k && c <= 0) {
						t.Fatalf("%s n=%d k=%d: item %d on the wrong side", name, n, k, i)
					}
				}
			}
		}
	}
}
