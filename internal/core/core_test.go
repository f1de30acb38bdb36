package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"topk/internal/em"
	"topk/internal/wrand"
)

// noIO is the charger the tests query through. The structures under test
// are built without a tracker, so they charge it nothing; the reductions
// only open (inactive) trace spans on it.
var noIO = em.NewTracker(em.DefaultConfig())

// Test problem: elements are points on the real line, predicates are
// closed ranges [Lo, Hi]. This is 1D range reporting — simple enough for a
// transparent oracle, rich enough to exercise every reduction path.

type span struct{ Lo, Hi float64 }

func spanMatch(q span, x float64) bool { return x >= q.Lo && x <= q.Hi }

// genItems returns n points uniform in [0, 100) with distinct weights.
func genItems(g *wrand.RNG, n int) []Item[float64] {
	ws := g.UniqueFloats(n, 1000)
	items := make([]Item[float64], n)
	for i := range items {
		items[i] = Item[float64]{Value: g.Float64() * 100, Weight: ws[i]}
	}
	return items
}

// naive is a correct, updatable prioritized+max structure used as the
// plugged-in black box in reduction tests. Like the real black boxes it
// keeps no weight index: Delete finds the item by scanning for it.
type naive struct {
	items []Item[float64]
}

func newNaive(items []Item[float64]) *naive {
	return &naive{items: append([]Item[float64](nil), items...)}
}

func (n *naive) ReportAbove(_ em.Charger, q span, tau float64, emit func(Item[float64]) bool) {
	for _, it := range n.items {
		if it.Weight >= tau && spanMatch(q, it.Value) {
			if !emit(it) {
				return
			}
		}
	}
}

func (n *naive) MaxItem(_ em.Charger, q span) (Item[float64], bool) {
	best, ok := Item[float64]{Weight: math.Inf(-1)}, false
	for _, it := range n.items {
		if spanMatch(q, it.Value) && it.Weight > best.Weight {
			best, ok = it, true
		}
	}
	return best, ok
}

func (n *naive) Insert(it Item[float64]) {
	n.items = append(n.items, it)
}

func (n *naive) Delete(it Item[float64]) bool {
	i := slices.Index(n.items, it)
	if i < 0 {
		return false
	}
	last := len(n.items) - 1
	n.items[i] = n.items[last]
	n.items = n.items[:last]
	return true
}

// oracleTopK computes ground truth by full scan.
func oracleTopK(items []Item[float64], q span, k int) []Item[float64] {
	var hit []Item[float64]
	for _, it := range items {
		if spanMatch(q, it.Value) {
			hit = append(hit, it)
		}
	}
	return TopKOf(hit, k)
}

func sameItems(t *testing.T, got, want []Item[float64], ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d items, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i].Weight != want[i].Weight || got[i].Value != want[i].Value {
			t.Fatalf("%s: item %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

func TestCollectAtMost(t *testing.T) {
	items := []Item[float64]{{1, 10}, {2, 20}, {3, 30}, {4, 40}}
	p := newNaive(items)
	q := span{0, 100}

	got, complete := CollectAtMost[span, float64](noIO, p, q, math.Inf(-1), 10, nil)
	if !complete || len(got) != 4 {
		t.Fatalf("uncapped: complete=%v len=%d, want true,4", complete, len(got))
	}
	got, complete = CollectAtMost[span, float64](noIO, p, q, math.Inf(-1), 3, nil)
	if complete || len(got) != 4 {
		t.Fatalf("capped at 3: complete=%v len=%d, want false,4 (limit+1 collected)", complete, len(got))
	}
	got, complete = CollectAtMost[span, float64](noIO, p, q, 25, 10, nil)
	if !complete || len(got) != 2 {
		t.Fatalf("tau=25: complete=%v len=%d, want true,2", complete, len(got))
	}
	got, complete = CollectAtMost[span, float64](noIO, p, q, math.Inf(-1), 4, nil)
	if !complete || len(got) != 4 {
		t.Fatalf("limit=n: complete=%v len=%d, want true,4", complete, len(got))
	}
}

func TestTopKOf(t *testing.T) {
	items := []Item[float64]{{1, 10}, {2, 40}, {3, 20}, {4, 30}}
	got := TopKOf(append([]Item[float64](nil), items...), 2)
	if len(got) != 2 || got[0].Weight != 40 || got[1].Weight != 30 {
		t.Fatalf("TopKOf k=2 = %+v", got)
	}
	got = TopKOf(append([]Item[float64](nil), items...), 99)
	if len(got) != 4 || got[0].Weight != 40 || got[3].Weight != 10 {
		t.Fatalf("TopKOf k=99 = %+v", got)
	}
	if got := TopKOf(append([]Item[float64](nil), items...), 0); len(got) != 0 {
		t.Fatalf("TopKOf k=0 = %+v", got)
	}
}

func TestLogB(t *testing.T) {
	if got := LogB(64, 64); got != 1 {
		t.Errorf("LogB(64,64) = %v, want 1", got)
	}
	if got := LogB(64*64, 64); math.Abs(got-2) > 1e-12 {
		t.Errorf("LogB(64^2,64) = %v, want 2", got)
	}
	if got := LogB(2, 64); got != 1 {
		t.Errorf("LogB(2,64) = %v, want clamp to 1", got)
	}
	if got := LogB(0, 64); got != 1 {
		t.Errorf("LogB(0,64) = %v, want 1", got)
	}
}

func TestCheckDistinctWeights(t *testing.T) {
	if _, ok := CheckDistinctWeights([]Item[int]{{1, 1}, {2, 2}}); !ok {
		t.Error("distinct weights flagged as duplicate")
	}
	if dup, ok := CheckDistinctWeights([]Item[int]{{1, 5}, {2, 5}}); ok || dup != 5 {
		t.Errorf("duplicate weight not detected: dup=%v ok=%v", dup, ok)
	}
	if _, ok := CheckDistinctWeights([]Item[int]{}); !ok {
		t.Error("empty set flagged as duplicate")
	}
}

// validateWeightsSeenSet is the in-order seen-set scan ValidateWeights
// must agree with, error string for error string.
func validateWeightsSeenSet(items []Item[int]) error {
	seen := make(map[float64]struct{}, len(items))
	for i, it := range items {
		if math.IsNaN(it.Weight) || math.IsInf(it.Weight, 0) {
			return fmt.Errorf("core: item %d has non-finite weight %v", i, it.Weight)
		}
		if _, exists := seen[it.Weight]; exists {
			return fmt.Errorf("core: duplicate weight %v; the top-k model requires distinct weights", it.Weight)
		}
		seen[it.Weight] = struct{}{}
	}
	return nil
}

// TestValidateWeightsNamesFirstOffender: the sort-based check reports
// the same first offence, in input order, as a seen-set scan.
func TestValidateWeightsNamesFirstOffender(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, ws := range [][]float64{
		{}, {1, 2, 3},
		{5, 3, 5, 3},              // duplicate 5 named, not 3
		{4, 3, 3, 4},              // duplicate 3 named: it repeats first
		{1, 2, 1, nan},            // duplicate before NaN
		{1, nan, 2, 1},            // NaN before duplicate
		{inf, 1, inf},             // the first Inf, not the repeat
		{2, 2, -inf},              // duplicate before -Inf
		{math.Copysign(0, -1), 0}, // -0 and +0 are one weight
	} {
		items := make([]Item[int], len(ws))
		for i, w := range ws {
			items[i] = Item[int]{Value: i, Weight: w}
		}
		got, want := ValidateWeights(items), validateWeightsSeenSet(items)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("weights %v: err %v, want %v", ws, got, want)
		}
	}
	if dup, ok := CheckDistinctWeights([]Item[int]{{0, 4}, {1, 3}, {2, 3}, {3, 4}}); ok || dup != 3 {
		t.Errorf("CheckDistinctWeights = %v, %v; want the first repeat, 3", dup, ok)
	}
}

func TestSortByWeightDesc(t *testing.T) {
	items := []Item[float64]{{1, 10}, {2, 40}, {3, 20}}
	SortByWeightDesc(items)
	if items[0].Weight != 40 || items[1].Weight != 20 || items[2].Weight != 10 {
		t.Fatalf("sorted = %+v", items)
	}
}
