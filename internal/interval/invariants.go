package interval

import (
	"fmt"
	"math"

	"topk/internal/treap"
)

// CheckInvariants verifies the tree's structural invariants — skeleton
// centers in search order, every treap-held interval containing its
// node's center, byLo and byHi holding the same items, each treap's own
// invariants, and the location map naming exactly where every item sits
// — returning the first violation found. Intended for tests and fuzzing;
// O(n).
func (t *Tree[V]) CheckInvariants() error {
	stored := 0
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
		var err error
		check := func(k treap.Key, v V, byHi bool) bool {
			sp := v.Span()
			ref, ok := t.loc[k.W]
			switch {
			case !sp.Contains(nd.center):
				err = fmt.Errorf("interval: %+v stored at center %v it does not contain", sp, nd.center)
			case byHi && k.K != sp.Hi || !byHi && k.K != sp.Lo:
				err = fmt.Errorf("interval: %+v keyed at %v", sp, k.K)
			case !ok || ref.nd != nd || ref.inRest || ref.span != sp:
				err = fmt.Errorf("interval: location of weight %v is %+v, want node %v", k.W, ref, nd.center)
			}
			return err == nil
		}
		nd.byLo.Ascend(func(k treap.Key, v V) bool { return check(k, v, false) })
		if err == nil {
			nd.byHi.Ascend(func(k treap.Key, v V) bool { return check(k, v, true) })
		}
		if err != nil {
			return err
		}
		for _, it := range nd.rest {
			if ref, ok := t.loc[it.Weight]; !ok || ref.nd != nd || !ref.inRest {
				return fmt.Errorf("interval: location of rest weight %v is %+v, want node %v", it.Weight, ref, nd.center)
			}
		}
		stored += nd.byLo.Len() + len(nd.rest)
		if err := walk(nd.left, lo, nd.center); err != nil {
			return err
		}
		return walk(nd.right, nd.center, hi)
	}
	if err := walk(t.root, math.Inf(-1), math.Inf(1)); err != nil {
		return err
	}
	if stored != len(t.loc) {
		return fmt.Errorf("interval: %d items stored, %d located", stored, len(t.loc))
	}
	return nil
}
