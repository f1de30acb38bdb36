// Package rangerep implements top-k 1D range reporting — the most
// extensively studied instance of the paper's framework (its Section 2
// survey: [3, 11, 12, 33, 35]). Elements are weighted points on the real
// line; a predicate is a closed query range [Lo, Hi]; a top-k query
// returns the k heaviest points inside the range.
//
// The building blocks are a single weight-augmented treap keyed by
// position: prioritized reporting prunes subtrees below the threshold and
// max reporting walks with best-weight pruning, both in O(log n + t)
// expected time, with insertions and deletions in O(log n). Through the
// reductions of internal/core these yield dynamic top-k range reporting —
// the paper's framework applied to its survey's headline problem.
//
// I/O accounting follows the same contract convention as package interval:
// one blocked root-to-leaf descent (O(log_B n)) plus O(t/B) output.
package rangerep

import (
	"fmt"
	"math"
	"slices"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/treap"
)

// Span is the closed query range [Lo, Hi].
type Span struct {
	Lo, Hi float64
}

// Contains reports whether x ∈ [Lo, Hi].
func (s Span) Contains(x float64) bool { return s.Lo <= x && x <= s.Hi }

// Valid reports whether the span is well-formed.
func (s Span) Valid() bool {
	return !math.IsNaN(s.Lo) && !math.IsNaN(s.Hi) && s.Lo <= s.Hi
}

// Match is the predicate evaluator for the reductions: the element value
// is the point's position.
func Match(q Span, x float64) bool { return q.Contains(x) }

// Lambda is the polynomial-boundedness exponent: outcomes are determined
// by the ranks of Lo and Hi among the n positions, so there are O(n²).
const Lambda = 2

// Points answers prioritized, max, and counting queries over weighted 1D
// points, and supports updates. It implements
// core.DynamicPrioritized[Span, float64] and core.DynamicMax[Span, float64].
type Points struct {
	tr      treap.Tree[struct{}] // keyed by (position, weight)
	tracker *em.Tracker
	run     em.BlockID
	blocks  int64
}

// NewPoints builds the structure over positions/weights pairs; tracker may
// be nil.
func NewPoints(items []core.Item[float64], tracker *em.Tracker) (*Points, error) {
	if err := core.ValidateWeights(items); err != nil {
		return nil, err
	}
	p := &Points{tracker: tracker}
	keys := make([]treap.Key, len(items))
	for i, it := range items {
		if math.IsNaN(it.Value) {
			return nil, fmt.Errorf("rangerep: NaN position")
		}
		keys[i] = treap.Key{K: it.Value, W: it.Weight}
	}
	slices.SortFunc(keys, treap.Key.Compare)
	p.tr = treap.Build(keys, make([]struct{}, len(keys)))
	if tracker != nil && len(items) > 0 {
		p.blocks = em.BlocksFor(len(items), 2, tracker.B())
		p.run = tracker.AllocRun(int(p.blocks))
	}
	return p, nil
}

// Len returns the number of stored points.
func (p *Points) Len() int { return p.tr.Len() }

// ReportAbove implements core.Prioritized[Span, float64].
func (p *Points) ReportAbove(c em.Charger, q Span, tau float64, emit func(core.Item[float64]) bool) {
	emitted := 0
	p.tr.RangeReportAbove(q.Lo, q.Hi, tau, func(k treap.Key, _ struct{}) bool {
		emitted++
		return emit(core.Item[float64]{Value: k.K, Weight: k.W})
	})
	if p.tracker != nil {
		c.PathCost(2 * log2ceil(p.tr.Len()+2))
		c.ScanCost(emitted)
	}
}

// MaxItem implements core.Max[Span, float64].
func (p *Points) MaxItem(c em.Charger, q Span) (core.Item[float64], bool) {
	k, _, ok := p.tr.RangeMax(q.Lo, q.Hi)
	if p.tracker != nil {
		c.PathCost(2 * log2ceil(p.tr.Len()+2))
	}
	if !ok {
		return core.Item[float64]{}, false
	}
	return core.Item[float64]{Value: k.K, Weight: k.W}, true
}

// Count returns |q(D)| in O(log n), a conventional extra the 1D problem
// supports exactly (most query algorithms in the literature use it).
func (p *Points) Count(c em.Charger, q Span) int {
	if p.tracker != nil {
		c.PathCost(2 * log2ceil(p.tr.Len()+2))
	}
	return p.tr.RangeCount(q.Lo, q.Hi)
}

// Insert implements core.Updatable.
func (p *Points) Insert(it core.Item[float64]) {
	p.tr.Insert(treap.Key{K: it.Value, W: it.Weight}, struct{}{})
	p.chargeUpdate()
}

// Delete implements core.Updatable: the point is the treap key
// (position, weight).
func (p *Points) Delete(it core.Item[float64]) bool {
	if !p.tr.Delete(treap.Key{K: it.Value, W: it.Weight}) {
		return false
	}
	p.chargeUpdate()
	return true
}

func (p *Points) chargeUpdate() {
	if p.tracker != nil {
		p.tracker.PathCost(log2ceil(p.tr.Len() + 2))
		p.tracker.ScanCost(1)
	}
}

func log2ceil(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// NewPrioritizedFactory adapts the constructor to the reduction factory
// signature.
func NewPrioritizedFactory(tracker *em.Tracker) core.PrioritizedFactory[Span, float64] {
	return func(items []core.Item[float64]) core.Prioritized[Span, float64] {
		p, err := NewPoints(items, tracker)
		if err != nil {
			panic(err)
		}
		return p
	}
}

// NewDynamicPrioritizedFactory is the updatable variant.
func NewDynamicPrioritizedFactory(tracker *em.Tracker) core.DynamicPrioritizedFactory[Span, float64] {
	return func(items []core.Item[float64]) core.DynamicPrioritized[Span, float64] {
		p, err := NewPoints(items, tracker)
		if err != nil {
			panic(err)
		}
		return p
	}
}

// NewMaxFactory adapts the max path to the reduction factory signature.
func NewMaxFactory(tracker *em.Tracker) core.MaxFactory[Span, float64] {
	return func(items []core.Item[float64]) core.Max[Span, float64] {
		p, err := NewPoints(items, tracker)
		if err != nil {
			panic(err)
		}
		return p
	}
}

// NewDynamicMaxFactory is the updatable variant.
func NewDynamicMaxFactory(tracker *em.Tracker) core.DynamicMaxFactory[Span, float64] {
	return func(items []core.Item[float64]) core.DynamicMax[Span, float64] {
		p, err := NewPoints(items, tracker)
		if err != nil {
			panic(err)
		}
		return p
	}
}
