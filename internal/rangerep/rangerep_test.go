package rangerep

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/wrand"
)

// noIO is the charger for queries on structures built without a tracker;
// such structures charge it nothing.
var noIO = em.NewTracker(em.DefaultConfig())

func genPoints(g *wrand.RNG, n int) []core.Item[float64] {
	ws := g.UniqueFloats(n, 1e6)
	items := make([]core.Item[float64], n)
	for i := range items {
		items[i] = core.Item[float64]{Value: g.Float64() * 100, Weight: ws[i]}
	}
	return items
}

func oracleAbove(items []core.Item[float64], q Span, tau float64) []core.Item[float64] {
	var out []core.Item[float64]
	for _, it := range items {
		if it.Weight >= tau && q.Contains(it.Value) {
			out = append(out, it)
		}
	}
	core.SortByWeightDesc(out)
	return out
}

func TestSpanBasics(t *testing.T) {
	s := Span{2, 5}
	if !s.Contains(2) || !s.Contains(5) || s.Contains(1.99) || s.Contains(5.01) {
		t.Fatal("Contains boundary behavior wrong")
	}
	if (Span{5, 2}).Valid() || (Span{math.NaN(), 1}).Valid() {
		t.Fatal("invalid span accepted")
	}
	if !(Span{3, 3}).Valid() {
		t.Fatal("point span rejected")
	}
}

func TestPointsAgainstOracle(t *testing.T) {
	g := wrand.New(1)
	items := genPoints(g, 1500)
	p, err := NewPoints(items, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1500 {
		t.Fatalf("Len = %d", p.Len())
	}
	for trial := 0; trial < 200; trial++ {
		lo := g.Float64() * 100
		q := Span{lo, lo + g.Float64()*30}
		tau := g.Float64() * 1.2e6

		var got []core.Item[float64]
		p.ReportAbove(noIO, q, tau, func(it core.Item[float64]) bool {
			got = append(got, it)
			return true
		})
		core.SortByWeightDesc(got)
		want := oracleAbove(items, q, tau)
		if len(got) != len(want) {
			t.Fatalf("q=%+v tau=%v: got %d, want %d", q, tau, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("q=%+v: item %d = %+v, want %+v", q, i, got[i], want[i])
			}
		}

		all := oracleAbove(items, q, math.Inf(-1))
		m, ok := p.MaxItem(noIO, q)
		if len(all) == 0 {
			if ok {
				t.Fatalf("q=%+v: found max in empty range", q)
			}
		} else if !ok || m.Weight != all[0].Weight {
			t.Fatalf("q=%+v: max (%v,%v), want %v", q, m.Weight, ok, all[0].Weight)
		}
		if c := p.Count(noIO, q); c != len(all) {
			t.Fatalf("q=%+v: Count=%d, want %d", q, c, len(all))
		}
	}
}

func TestPointsUpdates(t *testing.T) {
	g := wrand.New(2)
	items := genPoints(g, 400)
	p, err := NewPoints(items, nil)
	if err != nil {
		t.Fatal(err)
	}
	live := append([]core.Item[float64](nil), items...)
	stored := make(map[float64]bool, len(items))
	for _, it := range items {
		stored[it.Weight] = true
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < 60; i++ {
			it := core.Item[float64]{Value: g.Float64() * 100, Weight: 2e6 + g.Float64()*1e6}
			if stored[it.Weight] {
				continue
			}
			stored[it.Weight] = true
			p.Insert(it)
			live = append(live, it)
		}
		for i := 0; i < 50; i++ {
			v := g.IntN(len(live))
			if !p.Delete(live[v]) {
				t.Fatal("delete of live weight failed")
			}
			live[v] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		q := Span{20, 70}
		count := 0
		p.ReportAbove(noIO, q, math.Inf(-1), func(core.Item[float64]) bool { count++; return true })
		if want := len(oracleAbove(live, q, math.Inf(-1))); count != want {
			t.Fatalf("round %d: reported %d, want %d", round, count, want)
		}
	}
	if p.Delete(core.Item[float64]{Value: 50, Weight: -5}) {
		t.Fatal("deleted absent weight")
	}
}

// TestPointsDeleteByItem: Delete removes the key (position, weight) and
// nothing else — not a point sharing the position, not a stored weight
// at another position — and a miss charges no I/O.
func TestPointsDeleteByItem(t *testing.T) {
	tr := em.NewTracker(em.Config{B: 8, MemBlocks: 4})
	pt := func(x, w float64) core.Item[float64] { return core.Item[float64]{Value: x, Weight: w} }
	p, err := NewPoints([]core.Item[float64]{pt(1, 10), pt(1, 11), pt(2, 12)}, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.DropCache()
	tr.ResetCounters()
	before := tr.Stats()
	for _, miss := range []core.Item[float64]{pt(1, 99), pt(2, 10), pt(3, 12)} {
		if p.Delete(miss) {
			t.Fatalf("Delete(%+v) = true, want false", miss)
		}
	}
	if after := tr.Stats(); after != before || p.Len() != 3 {
		t.Fatalf("failed deletes: stats %+v -> %+v, Len %d", before, after, p.Len())
	}
	if !p.Delete(pt(1, 10)) {
		t.Fatal("stored point (1, 10) not deleted")
	}
	if tr.Stats() == before {
		t.Fatal("a successful delete charged nothing")
	}
	var got []float64
	p.ReportAbove(noIO, Span{0, 5}, math.Inf(-1), func(it core.Item[float64]) bool {
		got = append(got, it.Weight)
		return true
	})
	sort.Float64s(got)
	if fmt.Sprint(got) != "[11 12]" || p.Len() != 2 {
		t.Fatalf("after deleting (1, 10): weights %v, Len %d; want [11 12]", got, p.Len())
	}
}

func TestPointsValidation(t *testing.T) {
	dup := []core.Item[float64]{{Value: 1, Weight: 5}, {Value: 2, Weight: 5}}
	if _, err := NewPoints(dup, nil); err == nil {
		t.Fatal("duplicate weights accepted")
	}
	nan := []core.Item[float64]{{Value: math.NaN(), Weight: 5}}
	if _, err := NewPoints(nan, nil); err == nil {
		t.Fatal("NaN position accepted")
	}
}

func TestPointsIOCharging(t *testing.T) {
	tr := em.NewTracker(em.Config{B: 64, MemBlocks: 4})
	g := wrand.New(3)
	p, err := NewPoints(genPoints(g, 1<<14), tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.DropCache()
	tr.ResetCounters()
	p.MaxItem(tr, Span{10, 90})
	if ios := tr.Stats().IOs(); ios == 0 || ios > 10 {
		t.Errorf("MaxItem charged %d I/Os; want a handful (log_B n)", ios)
	}
}

func TestReductionIntegration(t *testing.T) {
	// The full Theorem 2 pipeline over the 1D range problem.
	g := wrand.New(4)
	items := genPoints(g, 3000)
	exp, err := core.NewDynamicExpected(items, Match,
		NewDynamicPrioritizedFactory(nil), NewDynamicMaxFactory(nil),
		core.ExpectedOptions{B: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
		lo := g.Float64() * 100
		q := Span{lo, lo + g.Float64()*40}
		for _, k := range []int{1, 10, 500} {
			got := exp.TopK(noIO, q, k)
			want := oracleAbove(items, q, math.Inf(-1))
			if k < len(want) {
				want = want[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
			}
			for i := range got {
				if got[i].Weight != want[i].Weight {
					t.Fatalf("k=%d item %d: %v, want %v", k, i, got[i].Weight, want[i].Weight)
				}
			}
		}
	}
}

// Property: Count agrees with reporting for arbitrary point sets/ranges.
func TestQuickCountMatchesReport(t *testing.T) {
	f := func(raw []uint16, loRaw, hiRaw uint16) bool {
		if len(raw) > 300 {
			raw = raw[:300]
		}
		items := make([]core.Item[float64], 0, len(raw))
		seen := map[float64]bool{}
		for i, r := range raw {
			w := float64(i) + float64(r)/65536
			if seen[w] {
				continue
			}
			seen[w] = true
			items = append(items, core.Item[float64]{Value: float64(r % 100), Weight: w})
		}
		p, err := NewPoints(items, nil)
		if err != nil {
			return false
		}
		lo, hi := float64(loRaw%120), float64(hiRaw%120)
		if lo > hi {
			lo, hi = hi, lo
		}
		q := Span{lo, hi}
		count := 0
		p.ReportAbove(noIO, q, math.Inf(-1), func(core.Item[float64]) bool { count++; return true })
		return p.Count(noIO, q) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
