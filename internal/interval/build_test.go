package interval

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"topk/internal/core"
	"topk/internal/treap"
	"topk/internal/wrand"
)

// incrementalTree builds the skeleton as build does but fills it one item
// at a time with place, i.e. two treap Inserts per item.
func incrementalTree(items []core.Item[Interval]) *Tree[Interval] {
	var coords []float64
	for _, it := range items {
		coords = append(coords, it.Value.Lo, it.Value.Hi)
	}
	slices.Sort(coords)
	coords = dedupSorted(coords)
	t := &Tree[Interval]{n0: len(items)}
	t.root = buildSkeleton(make([]tnode[Interval], len(coords)), coords, 0, len(coords))
	for _, it := range items {
		t.place(it)
	}
	return t
}

func treapKeys(tr *treap.Tree[Interval]) []treap.Key {
	var ks []treap.Key
	tr.Ascend(func(k treap.Key, _ Interval) bool {
		ks = append(ks, k)
		return true
	})
	return ks
}

// sameSkeleton compares two trees node for node: centers, both treaps'
// contents and heights, and rest lists.
func sameSkeleton(a, b *tnode[Interval]) error {
	if a == nil || b == nil {
		if a != b {
			return fmt.Errorf("skeleton shape differs")
		}
		return nil
	}
	if a.center != b.center || !slices.Equal(a.rest, b.rest) ||
		!slices.Equal(treapKeys(&a.byLo), treapKeys(&b.byLo)) || a.byLo.Height() != b.byLo.Height() ||
		!slices.Equal(treapKeys(&a.byHi), treapKeys(&b.byHi)) || a.byHi.Height() != b.byHi.Height() {
		return fmt.Errorf("node at center %v differs", a.center)
	}
	if err := sameSkeleton(a.left, b.left); err != nil {
		return err
	}
	return sameSkeleton(a.right, b.right)
}

// answers renders ReportAbove, MaxItem and Count at q as one string.
func answers(t *Tree[Interval], q, tau float64) string {
	var out []float64
	t.ReportAbove(noIO, q, tau, func(it core.Item[Interval]) bool {
		out = append(out, it.Weight)
		return true
	})
	m, ok := t.MaxItem(noIO, q)
	return fmt.Sprint(out, m, ok, t.Count(noIO, q))
}

// TestBulkBuildMatchesIncremental: the bulk build places every interval
// where per-item placement did, and a bulk-built tree then taking mixed
// Inserts and Deletes keeps its invariants and answers exactly as an
// incrementally built tree under the same stream.
func TestBulkBuildMatchesIncremental(t *testing.T) {
	for _, n := range []int{0, 1, 2, 50, 3000} {
		g := wrand.New(uint64(n) + 3)
		items := genIntervals(g, n)
		// Shared endpoints: snap a third of the intervals to a coarse grid.
		for i := range items {
			if i%3 == 0 {
				lo := math.Floor(items[i].Value.Lo / 5)
				items[i].Value = Interval{Lo: lo * 5, Hi: (lo + float64(g.IntN(4))) * 5}
			}
		}
		bulk, err := NewTree(items, nil)
		if err != nil {
			t.Fatal(err)
		}
		inc := incrementalTree(items)
		if err := sameSkeleton(bulk.root, inc.root); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		live := slices.Clone(items)
		extra := genIntervals(wrand.New(uint64(n)+1000), 2*n+100)
		for step := 0; step < 2*n+100; step++ {
			if len(live) > 0 && g.Bernoulli(0.4) {
				j := g.IntN(len(live))
				it := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				if !bulk.Delete(it) || !inc.Delete(it) {
					t.Fatalf("n=%d: delete %v missed", n, it.Weight)
				}
			} else {
				it := extra[step]
				it.Weight += 2e6 // clear of the initial weights
				live = append(live, it)
				bulk.Insert(it)
				inc.Insert(it)
			}
			if step%97 == 0 || step == 2*n+99 {
				if err := bulk.CheckInvariants(); err != nil {
					t.Fatalf("n=%d step %d: %v", n, step, err)
				}
				for trial := 0; trial < 20; trial++ {
					q, tau := g.Float64()*120-10, g.Float64()*3e6
					if got, want := answers(bulk, q, tau), answers(inc, q, tau); got != want {
						t.Fatalf("n=%d step %d q=%v: bulk %s, incremental %s", n, step, q, got, want)
					}
					if got, want := len(oracleAbove(live, q, tau)), reportCount(bulk, q, tau); got != want {
						t.Fatalf("n=%d step %d q=%v: oracle %d items, tree %d", n, step, q, got, want)
					}
				}
			}
		}
		if bulk.Len() != len(live) {
			t.Fatalf("n=%d: Len %d, want %d", n, bulk.Len(), len(live))
		}
	}
}

func reportCount(t *Tree[Interval], q, tau float64) int {
	c := 0
	t.ReportAbove(noIO, q, tau, func(core.Item[Interval]) bool { c++; return true })
	return c
}
