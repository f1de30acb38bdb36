package topk

import (
	"math"
	"sort"
	"testing"

	"topk/internal/wrand"
)

var allReductions = []Reduction{Expected, WorstCase, BinarySearch, FullScan}

func TestReductionString(t *testing.T) {
	names := map[Reduction]string{
		Expected: "Expected", WorstCase: "WorstCase",
		BinarySearch: "BinarySearch", FullScan: "FullScan",
	}
	for r, want := range names {
		if got := r.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if got := Reduction(99).String(); got != "Reduction(99)" {
		t.Errorf("unknown reduction String() = %q", got)
	}
}

func genIntervalItems(g *wrand.RNG, n int) []IntervalItem[int] {
	ws := g.UniqueFloats(n, 1e6)
	items := make([]IntervalItem[int], n)
	for i := range items {
		lo := g.Float64() * 100
		items[i] = IntervalItem[int]{Lo: lo, Hi: lo + g.ExpFloat64()*10, Weight: ws[i], Data: i}
	}
	return items
}

func intervalOracle(items []IntervalItem[int], x float64, k int) []float64 {
	var ws []float64
	for _, it := range items {
		if it.Lo <= x && x <= it.Hi {
			ws = append(ws, it.Weight)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ws)))
	if k < len(ws) {
		ws = ws[:k]
	}
	return ws
}

func TestIntervalIndexAllReductions(t *testing.T) {
	g := wrand.New(1)
	items := genIntervalItems(g, 3000)
	for _, r := range allReductions {
		ix, err := NewIntervalIndex(items, WithReduction(r), WithSeed(7))
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if ix.Len() != len(items) {
			t.Fatalf("%v: Len = %d", r, ix.Len())
		}
		for trial := 0; trial < 40; trial++ {
			x := g.Float64() * 120
			for _, k := range []int{1, 5, 100, 2000, 5000} {
				got := ix.TopK(x, k)
				want := intervalOracle(items, x, k)
				if len(got) != len(want) {
					t.Fatalf("%v x=%v k=%d: %d results, want %d", r, x, k, len(got), len(want))
				}
				for i := range got {
					if got[i].Weight != want[i] {
						t.Fatalf("%v x=%v k=%d: result %d weight %v, want %v", r, x, k, i, got[i].Weight, want[i])
					}
					// Payload must travel with the item.
					if items[got[i].Data].Weight != got[i].Weight {
						t.Fatalf("%v: payload mismatch", r)
					}
				}
			}
		}
	}
}

func TestIntervalIndexDirectQueries(t *testing.T) {
	g := wrand.New(2)
	items := genIntervalItems(g, 800)
	ix, err := NewIntervalIndex(items)
	if err != nil {
		t.Fatal(err)
	}
	x := 50.0
	want := intervalOracle(items, x, len(items))

	if m, ok := ix.Max(x); len(want) > 0 {
		if !ok || m.Weight != want[0] {
			t.Fatalf("Max = (%v,%v), want %v", m.Weight, ok, want[0])
		}
	} else if ok {
		t.Fatal("Max found item in empty result")
	}

	count := 0
	ix.ReportAbove(x, math.Inf(-1), func(it IntervalItem[int]) bool {
		count++
		return true
	})
	if count != len(want) {
		t.Fatalf("ReportAbove visited %d, want %d", count, len(want))
	}
}

func TestIntervalIndexDynamic(t *testing.T) {
	g := wrand.New(3)
	items := genIntervalItems(g, 1000)
	ix, err := NewIntervalIndex(items, WithReduction(Expected), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	live := append([]IntervalItem[int](nil), items...)

	for round := 0; round < 4; round++ {
		for i := 0; i < 100; i++ {
			lo := g.Float64() * 120
			it := IntervalItem[int]{Lo: lo, Hi: lo + g.Float64()*8, Weight: 2e6 + g.Float64()*1e6, Data: -1}
			if err := ix.Insert(it); err != nil {
				continue // duplicate weight collision
			}
			live = append(live, it)
		}
		for i := 0; i < 80; i++ {
			v := g.IntN(len(live))
			ok, err := ix.Delete(live[v].Weight)
			if err != nil || !ok {
				t.Fatalf("Delete: ok=%v err=%v", ok, err)
			}
			live[v] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for trial := 0; trial < 10; trial++ {
			x := g.Float64() * 120
			got := ix.TopK(x, 20)
			want := intervalOracle(live, x, 20)
			if len(got) != len(want) {
				t.Fatalf("round %d: %d results, want %d", round, len(got), len(want))
			}
			for i := range got {
				if got[i].Weight != want[i] {
					t.Fatalf("round %d: result %d = %v, want %v", round, i, got[i].Weight, want[i])
				}
			}
		}
	}
	if ix.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(live))
	}
}

func TestIntervalIndexStaticRejectsUpdates(t *testing.T) {
	g := wrand.New(4)
	ix, err := NewIntervalIndex(genIntervalItems(g, 50), WithReduction(WorstCase))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(IntervalItem[int]{Lo: 0, Hi: 1, Weight: 1e9}); err == nil {
		t.Fatal("static index accepted Insert")
	}
	if _, err := ix.Delete(1); err == nil {
		t.Fatal("static index accepted Delete")
	}
}

func TestIntervalIndexValidation(t *testing.T) {
	dup := []IntervalItem[int]{{Lo: 0, Hi: 1, Weight: 5}, {Lo: 2, Hi: 3, Weight: 5}}
	if _, err := NewIntervalIndex(dup); err == nil {
		t.Fatal("duplicate weights accepted")
	}
	g := wrand.New(5)
	ix, _ := NewIntervalIndex(genIntervalItems(g, 10))
	if err := ix.Insert(IntervalItem[int]{Lo: 5, Hi: 2, Weight: 99}); err == nil {
		t.Fatal("malformed interval accepted")
	}
}

func TestIntervalIndexStats(t *testing.T) {
	g := wrand.New(6)
	ix, err := NewIntervalIndex(genIntervalItems(g, 2000), WithBlockSize(128), WithMemBlocks(4))
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.Blocks <= 0 {
		t.Errorf("Blocks = %d, want > 0", st.Blocks)
	}
	if st.Reduction != Expected {
		t.Errorf("Reduction = %v", st.Reduction)
	}
	ix.ResetStats()
	before := ix.Stats().IOs()
	ix.TopK(50, 10)
	if after := ix.Stats().IOs(); after <= before {
		t.Errorf("query charged no I/Os (%d -> %d)", before, after)
	}
}

func genDomItems(g *wrand.RNG, n int) []DominanceItem[string] {
	ws := g.UniqueFloats(n, 1e6)
	items := make([]DominanceItem[string], n)
	for i := range items {
		items[i] = DominanceItem[string]{
			X: g.Float64() * 100, Y: g.Float64() * 100, Z: g.Float64() * 100,
			Weight: ws[i], Data: "hotel",
		}
	}
	return items
}

func TestDominanceIndexAllReductions(t *testing.T) {
	g := wrand.New(7)
	items := genDomItems(g, 1200)
	oracle := func(x, y, z float64, k int) []float64 {
		var ws []float64
		for _, it := range items {
			if it.X <= x && it.Y <= y && it.Z <= z {
				ws = append(ws, it.Weight)
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(ws)))
		if k < len(ws) {
			ws = ws[:k]
		}
		return ws
	}
	for _, r := range allReductions {
		ix, err := NewDominanceIndex(items, WithReduction(r), WithSeed(11))
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		for trial := 0; trial < 25; trial++ {
			x, y, z := g.Float64()*110, g.Float64()*110, g.Float64()*110
			for _, k := range []int{1, 10, 400} {
				got := ix.TopK(x, y, z, k)
				want := oracle(x, y, z, k)
				if len(got) != len(want) {
					t.Fatalf("%v: %d results, want %d", r, len(got), len(want))
				}
				for i := range got {
					if got[i].Weight != want[i] {
						t.Fatalf("%v: result %d = %v, want %v", r, i, got[i].Weight, want[i])
					}
				}
			}
		}
		if m, ok := ix.Max(110, 110, 110); !ok || m.Data != "hotel" {
			t.Fatalf("%v: Max = %+v,%v", r, m, ok)
		}
	}
}

func TestEnclosureIndexAllReductions(t *testing.T) {
	g := wrand.New(8)
	n := 1000
	ws := g.UniqueFloats(n, 1e6)
	items := make([]RectItem[int], n)
	for i := range items {
		x1, y1 := g.Float64()*100, g.Float64()*100
		items[i] = RectItem[int]{
			X1: x1, X2: x1 + g.ExpFloat64()*12,
			Y1: y1, Y2: y1 + g.ExpFloat64()*12,
			Weight: ws[i], Data: i,
		}
	}
	oracle := func(x, y float64, k int) []float64 {
		var out []float64
		for _, it := range items {
			if it.X1 <= x && x <= it.X2 && it.Y1 <= y && y <= it.Y2 {
				out = append(out, it.Weight)
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(out)))
		if k < len(out) {
			out = out[:k]
		}
		return out
	}
	for _, r := range allReductions {
		ix, err := NewEnclosureIndex(items, WithReduction(r), WithSeed(13))
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		for trial := 0; trial < 25; trial++ {
			x, y := g.Float64()*120, g.Float64()*120
			for _, k := range []int{1, 10, 300} {
				got := ix.TopK(x, y, k)
				want := oracle(x, y, k)
				if len(got) != len(want) {
					t.Fatalf("%v (%v,%v) k=%d: %d results, want %d", r, x, y, k, len(got), len(want))
				}
				for i := range got {
					if got[i].Weight != want[i] {
						t.Fatalf("%v: result %d = %v, want %v", r, i, got[i].Weight, want[i])
					}
				}
			}
		}
	}
}

func TestHalfplaneIndexAllReductions(t *testing.T) {
	g := wrand.New(9)
	n := 800
	ws := g.UniqueFloats(n, 1e6)
	items := make([]PointItem2[int], n)
	for i := range items {
		items[i] = PointItem2[int]{X: g.NormFloat64() * 10, Y: g.NormFloat64() * 10, Weight: ws[i], Data: i}
	}
	oracle := func(a, b, c float64, k int) []float64 {
		var out []float64
		for _, it := range items {
			if a*it.X+b*it.Y >= c {
				out = append(out, it.Weight)
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(out)))
		if k < len(out) {
			out = out[:k]
		}
		return out
	}
	for _, r := range allReductions {
		ix, err := NewHalfplaneIndex(items, WithReduction(r), WithSeed(17))
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		for trial := 0; trial < 25; trial++ {
			theta := g.Float64() * 2 * math.Pi
			a, b := math.Cos(theta), math.Sin(theta)
			c := g.NormFloat64() * 8
			for _, k := range []int{1, 10, 300} {
				got := ix.TopK(a, b, c, k)
				want := oracle(a, b, c, k)
				if len(got) != len(want) {
					t.Fatalf("%v: %d results, want %d", r, len(got), len(want))
				}
				for i := range got {
					if got[i].Weight != want[i] {
						t.Fatalf("%v: result %d = %v, want %v", r, i, got[i].Weight, want[i])
					}
				}
			}
		}
	}
}

func TestHalfspaceIndexD4(t *testing.T) {
	g := wrand.New(10)
	const n, d = 600, 4
	ws := g.UniqueFloats(n, 1e6)
	items := make([]PointItemN[int], n)
	for i := range items {
		c := make([]float64, d)
		for j := range c {
			c[j] = g.NormFloat64() * 10
		}
		items[i] = PointItemN[int]{Coords: c, Weight: ws[i], Data: i}
	}
	for _, r := range allReductions {
		ix, err := NewHalfspaceIndex(items, d, WithReduction(r), WithSeed(19))
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if ix.Dim() != d {
			t.Fatalf("Dim = %d", ix.Dim())
		}
		for trial := 0; trial < 15; trial++ {
			a := make([]float64, d)
			for j := range a {
				a[j] = g.NormFloat64()
			}
			c := g.NormFloat64() * 10
			var want []float64
			for _, it := range items {
				dot := 0.0
				for j := range a {
					dot += a[j] * it.Coords[j]
				}
				if dot >= c {
					want = append(want, it.Weight)
				}
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(want)))
			k := 25
			if k > len(want) {
				k = len(want)
			}
			got := ix.TopK(a, c, 25)
			if len(got) != k {
				t.Fatalf("%v: %d results, want %d", r, len(got), k)
			}
			for i := range got {
				if got[i].Weight != want[i] {
					t.Fatalf("%v: result %d = %v, want %v", r, i, got[i].Weight, want[i])
				}
			}
		}
	}
}

func TestCircularIndexAllReductions(t *testing.T) {
	g := wrand.New(11)
	const n, d = 600, 2
	ws := g.UniqueFloats(n, 1e6)
	items := make([]PointItemN[int], n)
	for i := range items {
		items[i] = PointItemN[int]{
			Coords: []float64{g.NormFloat64() * 10, g.NormFloat64() * 10},
			Weight: ws[i], Data: i,
		}
	}
	for _, r := range allReductions {
		ix, err := NewCircularIndex(items, d, WithReduction(r), WithSeed(23))
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		for trial := 0; trial < 20; trial++ {
			center := []float64{g.NormFloat64() * 10, g.NormFloat64() * 10}
			radius := 3 + g.Float64()*12
			var want []float64
			for _, it := range items {
				dx, dy := it.Coords[0]-center[0], it.Coords[1]-center[1]
				if dx*dx+dy*dy <= radius*radius {
					want = append(want, it.Weight)
				}
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(want)))
			k := 15
			if k > len(want) {
				k = len(want)
			}
			got := ix.TopK(center, radius, 15)
			if len(got) != k {
				t.Fatalf("%v: %d results, want %d", r, len(got), k)
			}
			for i := range got {
				if got[i].Weight != want[i] {
					t.Fatalf("%v: result %d = %v, want %v", r, i, got[i].Weight, want[i])
				}
			}
			// Unlifted coordinates must round-trip.
			for _, it := range got {
				if len(it.Coords) != d {
					t.Fatalf("%v: result has %d coords", r, len(it.Coords))
				}
			}
		}
	}
}

func TestIndexValidationErrors(t *testing.T) {
	if _, err := NewOrthoIndex[int](nil, 0); err == nil {
		t.Error("dimension 0 accepted")
	}
	if _, err := NewHalfspaceIndex[int](nil, 0); err == nil {
		t.Error("dimension 0 accepted")
	}
	if _, err := NewCircularIndex[int](nil, 0); err == nil {
		t.Error("dimension 0 accepted")
	}
	bad := []PointItemN[int]{{Coords: []float64{1}, Weight: 1}}
	if _, err := NewHalfspaceIndex(bad, 3); err == nil {
		t.Error("coordinate mismatch accepted")
	}
	if _, err := NewCircularIndex(bad, 3); err == nil {
		t.Error("coordinate mismatch accepted")
	}
	dupD := []DominanceItem[int]{{X: 1, Weight: 5}, {X: 2, Weight: 5}}
	if _, err := NewDominanceIndex(dupD); err == nil {
		t.Error("duplicate weights accepted")
	}
	dupP := []PointItem2[int]{{X: 1, Weight: 5}, {X: 2, Weight: 5}}
	if _, err := NewHalfplaneIndex(dupP); err == nil {
		t.Error("duplicate weights accepted")
	}
	dupR := []RectItem[int]{{X2: 1, Y2: 1, Weight: 5}, {X2: 2, Y2: 2, Weight: 5}}
	if _, err := NewEnclosureIndex(dupR); err == nil {
		t.Error("duplicate weights accepted")
	}
}

func TestEmptyIndexes(t *testing.T) {
	ii, err := NewIntervalIndex[int](nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ii.TopK(5, 3); len(got) != 0 {
		t.Errorf("empty interval index returned %v", got)
	}
	di, err := NewDominanceIndex[int](nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := di.TopK(1, 1, 1, 3); len(got) != 0 {
		t.Errorf("empty dominance index returned %v", got)
	}
	if _, ok := di.Max(1, 1, 1); ok {
		t.Error("empty dominance index found a max")
	}
}

func TestIntervalItemsSnapshot(t *testing.T) {
	g := wrand.New(35)
	items := genIntervalItems(g, 200)
	ix, err := NewIntervalIndex(items)
	if err != nil {
		t.Fatal(err)
	}
	_ = ix.Insert(IntervalItem[int]{Lo: 10, Hi: 20, Weight: 9e9, Data: 42})
	_, _ = ix.Delete(items[0].Weight)
	snap := ix.Items()
	if len(snap) != ix.Len() {
		t.Fatalf("snapshot %d items, index %d", len(snap), ix.Len())
	}
	found := false
	for _, it := range snap {
		if it.Weight == 9e9 && it.Data == 42 {
			found = true
		}
		if it.Weight == items[0].Weight {
			t.Fatal("deleted item still in snapshot")
		}
	}
	if !found {
		t.Fatal("inserted item missing from snapshot")
	}
}

func TestNonFiniteWeightsRejected(t *testing.T) {
	nan := math.NaN()
	if _, err := NewIntervalIndex([]IntervalItem[int]{{Lo: 0, Hi: 1, Weight: nan}}); err == nil {
		t.Error("NaN weight accepted at build")
	}
	if _, err := NewRangeIndex([]PointItem1[int]{{Pos: 0, Weight: math.Inf(1)}}); err == nil {
		t.Error("+Inf weight accepted at build")
	}
	if _, err := NewDominanceIndex([]DominanceItem[int]{{Weight: nan}}); err == nil {
		t.Error("NaN weight accepted by dominance build")
	}
	ix, err := NewIntervalIndex([]IntervalItem[int]{{Lo: 0, Hi: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(IntervalItem[int]{Lo: 0, Hi: 1, Weight: nan}); err == nil {
		t.Error("NaN weight accepted by Insert")
	}
	rx, err := NewRangeIndex([]PointItem1[int]{{Pos: 0, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rx.Insert(PointItem1[int]{Pos: 0, Weight: math.Inf(-1)}); err == nil {
		t.Error("-Inf weight accepted by Insert")
	}
}

func TestPrioritizedAccessorAllReductions(t *testing.T) {
	// The facade's ReportAbove path reuses the reduction's internal
	// prioritized structure; verify it exists and answers correctly for
	// every reduction.
	g := wrand.New(36)
	items := genIntervalItems(g, 500)
	for _, r := range allReductions {
		ix, err := NewIntervalIndex(items, WithReduction(r))
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if ix.eng.pri == nil {
			t.Fatalf("%v: no prioritized accessor", r)
		}
		x := 50.0
		want := intervalOracle(items, x, len(items))
		count := 0
		ix.ReportAbove(x, math.Inf(-1), func(IntervalItem[int]) bool { count++; return true })
		if count != len(want) {
			t.Fatalf("%v: ReportAbove saw %d, want %d", r, count, len(want))
		}
		// Max must agree with TopK(·, 1).
		m, ok := ix.Max(x)
		if len(want) == 0 {
			if ok {
				t.Fatalf("%v: Max found item in empty result", r)
			}
		} else if !ok || m.Weight != want[0] {
			t.Fatalf("%v: Max = (%v,%v), want %v", r, m.Weight, ok, want[0])
		}
	}
}

func TestItemsAllReductions(t *testing.T) {
	g := wrand.New(37)
	items := genIntervalItems(g, 120)
	for _, r := range allReductions {
		ix, err := NewIntervalIndex(items, WithReduction(r))
		if err != nil {
			t.Fatal(err)
		}
		snap := ix.Items()
		if len(snap) != len(items) {
			t.Fatalf("%v: Items returned %d of %d", r, len(snap), len(items))
		}
		seen := map[float64]bool{}
		for _, it := range snap {
			seen[it.Weight] = true
		}
		for _, it := range items {
			if !seen[it.Weight] {
				t.Fatalf("%v: snapshot missing weight %v", r, it.Weight)
			}
		}
	}
}
