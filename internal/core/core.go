// Package core implements the paper's contribution: general black-box
// reductions from top-k reporting to prioritized reporting and max
// reporting (Rahul & Tao, "Efficient Top-k Indexing via General
// Reductions", PODS 2016).
//
// The framework follows Section 1 of the paper. An input is a set D of n
// elements, each carrying a distinct real weight. Q is the set of
// predicates allowed on elements. Three query types are defined over (D, Q):
//
//   - Prioritized reporting: given (q, τ), report every e ∈ q(D) with
//     w(e) ≥ τ.
//   - Max reporting: given q, report the single heaviest element of q(D).
//   - Top-k reporting: given (q, k), report the k heaviest elements of
//     q(D) (all of q(D) if it has fewer than k elements).
//
// The two reductions are:
//
//   - WorstCase (Theorem 1): prioritized ⇒ static top-k with an
//     O(log_B n) query slowdown, via nested top-k core-sets (Lemma 2).
//   - Expected (Theorem 2): prioritized + max ⇒ top-k with no asymptotic
//     degradation in expectation, via a geometric ladder of (1/K)-samples
//     (Lemma 3), supporting updates.
//
// Baselines from prior work (the Rahul–Janardan binary-search reduction
// that Theorem 1 improves, and a linear-scan oracle) are implemented for
// the comparison experiments.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"topk/internal/em"
	"topk/internal/xsort"
)

// Item is one weighted element of the input set D. Weights are assumed
// distinct across a structure's items, the paper's standing tie-breaking
// assumption (Section 1.1); constructors in this repository verify it.
type Item[V any] struct {
	Value  V
	Weight float64
}

// LessItems orders items weight-descending ("best first").
func LessItems[V any](a, b Item[V]) bool { return a.Weight > b.Weight }

// SortByWeightDesc sorts items heaviest-first in place.
func SortByWeightDesc[V any](items []Item[V]) {
	slices.SortFunc(items, func(a, b Item[V]) int { return cmp.Compare(b.Weight, a.Weight) })
}

// Prioritized is a structure answering prioritized-reporting queries.
//
// ReportAbove must call emit once for each item e satisfying q with
// w(e) ≥ tau, in unspecified order, and stop as soon as emit returns
// false. The paper's contract is a cost of Q_pri(n) + O(t/B) where t is
// the number of emitted items.
//
// Every query method in this package takes the em.Charger the query's
// I/Os and trace spans go to: the structure's own tracker (the shared
// path) or a query view opened on it. A structure built without a tracker
// charges nothing, but reductions still open spans on c, so c is never
// nil.
type Prioritized[Q, V any] interface {
	ReportAbove(c em.Charger, q Q, tau float64, emit func(Item[V]) bool)
}

// Max is a structure answering max-reporting (top-1) queries in Q_max(n).
type Max[Q, V any] interface {
	// MaxItem returns the heaviest item satisfying q; ok is false when
	// q(D) is empty.
	MaxItem(c em.Charger, q Q) (item Item[V], ok bool)
}

// TopK is a structure answering top-k queries. The result is
// weight-descending and has min(k, |q(D)|) items.
type TopK[Q, V any] interface {
	TopK(c em.Charger, q Q, k int) []Item[V]
}

// Updatable is the dynamic interface required from building blocks plugged
// into the Theorem 2 reduction's update path. A building block keeps no
// weight index of its own: the layer above it owns one (Expected's
// posByW) and hands it the stored item, which the block finds again by
// its own search keys.
type Updatable[V any] interface {
	// Insert adds an item. The caller guarantees its weight is not
	// already stored.
	Insert(Item[V])
	// Delete removes the stored item with its weight and geometry and
	// reports whether it was present. An absent item, or a stored weight
	// under different geometry, returns false and charges nothing.
	Delete(it Item[V]) bool
}

// DynamicPrioritized is a prioritized structure that supports updates.
type DynamicPrioritized[Q, V any] interface {
	Prioritized[Q, V]
	Updatable[V]
}

// DynamicMax is a max structure that supports updates.
type DynamicMax[Q, V any] interface {
	Max[Q, V]
	Updatable[V]
}

// MatchFunc decides whether a value satisfies a predicate. The reductions
// need it only for their brute-force fallbacks (scanning a small base set),
// mirroring the paper's "scan the entire D" steps.
type MatchFunc[Q, V any] func(q Q, v V) bool

// PrioritizedFactory builds a prioritized structure over an arbitrary
// subset of the input. The reductions invoke it on D itself and on every
// core-set / sample; the factory owns the items slice passed to it.
type PrioritizedFactory[Q, V any] func(items []Item[V]) Prioritized[Q, V]

// MaxFactory builds a max structure over an arbitrary subset of the input.
type MaxFactory[Q, V any] func(items []Item[V]) Max[Q, V]

// DynamicPrioritizedFactory builds an updatable prioritized structure.
type DynamicPrioritizedFactory[Q, V any] func(items []Item[V]) DynamicPrioritized[Q, V]

// DynamicMaxFactory builds an updatable max structure.
type DynamicMaxFactory[Q, V any] func(items []Item[V]) DynamicMax[Q, V]

// CollectAtMost runs a prioritized query in the paper's "cost monitoring"
// manner (Section 3.2): the query is terminated manually as soon as
// limit+1 elements have been reported. It returns the collected items
// (at most limit+1) and whether the query terminated by itself, i.e.
// complete == true means the returned items are all of {e ∈ q(D) :
// w(e) ≥ tau}. The items are appended to buf[:0], so a caller running
// several probes can reuse one buffer (nil allocates a fresh one).
func CollectAtMost[Q, V any](c em.Charger, p Prioritized[Q, V], q Q, tau float64, limit int, buf []Item[V]) (items []Item[V], complete bool) {
	items, complete = buf[:0], true
	p.ReportAbove(c, q, tau, func(it Item[V]) bool {
		items = append(items, it)
		if len(items) > limit {
			complete = false
			return false
		}
		return true
	})
	return items, complete
}

// CollectAll drains a prioritized query with no cap.
func CollectAll[Q, V any](c em.Charger, p Prioritized[Q, V], q Q, tau float64) []Item[V] {
	var items []Item[V]
	p.ReportAbove(c, q, tau, func(it Item[V]) bool {
		items = append(items, it)
		return true
	})
	return items
}

// PrioritizedOf extracts the prioritized structure living inside a
// reduction-built top-k structure, so callers can answer prioritized
// queries without constructing duplicate black boxes. It returns nil when
// the structure exposes none.
func PrioritizedOf[Q, V any](t TopK[Q, V]) Prioritized[Q, V] {
	switch s := t.(type) {
	case interface{ Prioritized() Prioritized[Q, V] }:
		return s.Prioritized()
	case Prioritized[Q, V]: // the FullScan oracle is its own
		return s
	}
	return nil
}

// TopKOf performs k-selection on a batch of candidate items and returns the
// k heaviest, weight-descending. It is the paper's "k-selection" primitive,
// costing O(|items|/B) I/Os in EM (charged by callers via ScanCost).
func TopKOf[V any](items []Item[V], k int) []Item[V] {
	top := xsort.SelectTopK(items, k, LessItems[V])
	xsort.SortPrefix(top, len(top), LessItems[V])
	return top
}

// LogB returns log_B(n), clamped below at 1 — the paper's convention that
// Q_pri(n) ≥ log_B n makes 1 the natural floor for tiny inputs.
func LogB(n int, b int) float64 {
	if n < 2 || b < 2 {
		return 1
	}
	v := math.Log(float64(n)) / math.Log(float64(b))
	if v < 1 {
		return 1
	}
	return v
}

// CheckDistinctWeights reports the first duplicated weight, if any.
// Reductions rely on distinct weights for tie-free ranking and for
// weight-keyed deletion.
func CheckDistinctWeights[V any](items []Item[V]) (dup float64, ok bool) {
	ws := weightsOf(items)
	if rep := xsort.Repeats(ws); len(rep) > 0 {
		return ws[rep[0]], false
	}
	return 0, true
}

// ValidateWeights checks the full weight contract at once: every weight
// finite (NaN would corrupt every ordering and map silently; ±Inf
// collides with the sentinel thresholds) and all weights distinct.
// Constructors should call this instead of CheckDistinctWeights alone.
// The error names the first offending item in input order. The check
// sorts a copy of the weights and builds no map.
func ValidateWeights[V any](items []Item[V]) error {
	ws := weightsOf(items)
	bad := len(ws)
	for i, w := range ws {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			bad = i
			break
		}
	}
	if rep := xsort.Repeats(ws); len(rep) > 0 && rep[0] < bad {
		return fmt.Errorf("core: duplicate weight %v; the top-k model requires distinct weights", ws[rep[0]])
	}
	if bad < len(ws) {
		return fmt.Errorf("core: item %d has non-finite weight %v", bad, ws[bad])
	}
	return nil
}

func weightsOf[V any](items []Item[V]) []float64 {
	ws := make([]float64, len(items))
	for i, it := range items {
		ws[i] = it.Weight
	}
	return ws
}
