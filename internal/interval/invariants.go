package interval

import (
	"fmt"
	"math"

	"topk/internal/treap"
	"topk/internal/xsort"
)

// CheckInvariants verifies the tree's structural invariants — skeleton
// centers in search order, every treap-held interval containing its
// node's center, byLo and byHi holding the same items, each treap's own
// invariants, every item stored where route sends its span (so Delete
// finds it again), distinct weights, and the item counter — returning
// the first violation found. Intended for tests and fuzzing; O(n log n).
func (t *Tree[V]) CheckInvariants() error {
	var ws []float64
	var walk func(nd *tnode[V], lo, hi float64) error
	walk = func(nd *tnode[V], lo, hi float64) error {
		if nd == nil {
			return nil
		}
		// Centers may be infinite, so the outermost bounds admit equality.
		if !(lo < nd.center || math.IsInf(lo, -1)) || !(nd.center < hi || math.IsInf(hi, 1)) {
			return fmt.Errorf("interval: center %v outside its subtree range (%v, %v)", nd.center, lo, hi)
		}
		for _, tr := range []*treap.Tree[V]{&nd.byLo, &nd.byHi} {
			if err := tr.CheckInvariants(); err != nil {
				return fmt.Errorf("interval: node %v: %w", nd.center, err)
			}
		}
		if nd.byLo.Len() != nd.byHi.Len() {
			return fmt.Errorf("interval: node %v holds %d items by Lo but %d by Hi", nd.center, nd.byLo.Len(), nd.byHi.Len())
		}
		inLo := func(k treap.Key) bool { _, ok := nd.byLo.Get(k); return ok }
		var err error
		check := func(k treap.Key, v V, byHi bool) bool {
			sp := v.Span()
			switch {
			case !sp.Contains(nd.center):
				err = fmt.Errorf("interval: %+v stored at center %v it does not contain", sp, nd.center)
			case byHi && k.K != sp.Hi || !byHi && k.K != sp.Lo:
				err = fmt.Errorf("interval: %+v keyed at %v", sp, k.K)
			case byHi && !inLo(treap.Key{K: sp.Lo, W: k.W}):
				err = fmt.Errorf("interval: weight %v at node %v is held by Hi but not by Lo", k.W, nd.center)
			default:
				if at, inRest := t.route(sp); at != nd || inRest {
					err = fmt.Errorf("interval: weight %v %+v stored at node %v, routed elsewhere", k.W, sp, nd.center)
				}
			}
			return err == nil
		}
		nd.byLo.Ascend(func(k treap.Key, v V) bool {
			ws = append(ws, k.W)
			return check(k, v, false)
		})
		if err == nil {
			nd.byHi.Ascend(func(k treap.Key, v V) bool { return check(k, v, true) })
		}
		if err != nil {
			return err
		}
		for _, it := range nd.rest {
			if at, inRest := t.route(it.Value.Span()); at != nd || !inRest {
				return fmt.Errorf("interval: rest weight %v at node %v, routed elsewhere", it.Weight, nd.center)
			}
			ws = append(ws, it.Weight)
		}
		if err := walk(nd.left, lo, nd.center); err != nil {
			return err
		}
		return walk(nd.right, nd.center, hi)
	}
	if err := walk(t.root, math.Inf(-1), math.Inf(1)); err != nil {
		return err
	}
	if len(ws) != t.n {
		return fmt.Errorf("interval: %d items stored, counter says %d", len(ws), t.n)
	}
	if rep := xsort.Repeats(ws); len(rep) > 0 {
		return fmt.Errorf("interval: weight %v stored twice", ws[rep[0]])
	}
	return nil
}
