// Package interval implements the building blocks of the paper's
// Theorem 4 (top-k interval stabbing): a dynamic interval tree answering
// prioritized-stabbing and stabbing-max queries (the roles played in the
// paper by Tao's ray-stabbing structure [34] and the stabbing-semigroup
// structure of Agarwal et al. [7]), and the folklore static 1D stabbing-max
// structure of Section 5.2.
//
// Input elements are closed intervals [Lo, Hi] ⊂ ℝ with distinct real
// weights; a predicate is a stabbing point q ∈ ℝ, satisfied by intervals
// containing q.
//
// # I/O accounting
//
// These structures stand in for the black boxes the paper cites — Tao '12
// for prioritized ray stabbing (O(log_B n + t/B) I/Os) and Agarwal et
// al. '12 for dynamic stabbing max (O(log_B n)). They charge the simulated
// EM machine exactly that contract: skeleton root-to-leaf walks charge
// em.Tracker.PathCost (blocked tree layout, one I/O per ⌊log₂B⌋ nodes,
// i.e. O(log_B n) per walk) and every reported item charges ScanCost
// (B items per block, the O(t/B) output term). The in-memory treap
// traversals that realize the queries are RAM work and are measured by
// the wall-clock benchmarks, not double-billed as I/Os — this keeps the
// reduction experiments (E4–E7) measuring precisely the quantities
// Theorems 1 and 2 are stated over. See DESIGN.md's substitution table.
package interval

import (
	"fmt"
	"math"
	"slices"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/treap"
)

// Interval is a closed interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Span makes Interval satisfy Spanned, so the structures can index bare
// intervals directly.
func (iv Interval) Span() Interval { return iv }

// Contains reports whether x ∈ [Lo, Hi].
func (iv Interval) Contains(x float64) bool { return iv.Lo <= x && x <= iv.Hi }

// Valid reports whether the interval is well-formed (Lo ≤ Hi, no NaNs).
func (iv Interval) Valid() bool {
	return !math.IsNaN(iv.Lo) && !math.IsNaN(iv.Hi) && iv.Lo <= iv.Hi
}

// Spanned is implemented by any element type that carries an interval.
type Spanned interface {
	Span() Interval
}

// Tree is a dynamic interval tree: a balanced skeleton over the endpoint
// coordinates, with each interval stored at the highest node whose center
// it contains, in two weight-augmented treaps (keyed by Lo and by Hi).
//
// Queries:
//   - ReportAbove(q, τ): every item containing q with weight ≥ τ, in
//     O(log² n + t) time / O(log n·log_B n + t/B)-style charged I/Os;
//   - MaxItem(q): the heaviest item containing q.
//
// Updates run in O(log² n) expected time; the skeleton is rebuilt after
// n/2 updates, so new endpoints degrade nothing asymptotically (amortized).
//
// Tree implements core.DynamicPrioritized[float64, V] and
// core.DynamicMax[float64, V].
type Tree[V Spanned] struct {
	tracker *em.Tracker
	root    *tnode[V]
	n       int // stored items
	n0      int // size at last (re)build
	churn   int // updates since last (re)build
	run     em.BlockID
	blocks  int64
}

type tnode[V Spanned] struct {
	center      float64
	byLo, byHi  treap.Tree[V]
	rest        []core.Item[V] // post-build intervals that fit no node center
	left, right *tnode[V]
}

// NewTree builds a tree over items. tracker may be nil. It returns an
// error on duplicate weights or malformed intervals.
func NewTree[V Spanned](items []core.Item[V], tracker *em.Tracker) (*Tree[V], error) {
	if err := core.ValidateWeights(items); err != nil {
		return nil, err
	}
	for _, it := range items {
		if !it.Value.Span().Valid() {
			return nil, fmt.Errorf("interval: malformed interval %+v", it.Value.Span())
		}
	}
	t := &Tree[V]{tracker: tracker}
	t.build(items)
	return t, nil
}

func (t *Tree[V]) build(items []core.Item[V]) {
	// Space accounting: release the previous incarnation's blocks, then
	// allocate the new ones (items at ~4 words each, plus the skeleton).
	if t.tracker != nil {
		if t.run != 0 {
			t.tracker.FreeRun(t.run, int(t.blocks))
			t.run, t.blocks = 0, 0
		}
		if len(items) > 0 {
			t.blocks = em.BlocksFor(len(items), 4, t.tracker.B())
			t.run = t.tracker.AllocRun(int(t.blocks))
		}
	}
	spans := make([]Interval, len(items))
	coords := make([]float64, 0, 2*len(items))
	for i, it := range items {
		sp := it.Value.Span()
		spans[i] = sp
		coords = append(coords, sp.Lo, sp.Hi)
	}
	slices.Sort(coords)
	coords = dedupSorted(coords)

	// Skeleton node j (one slab) has center coords[j].
	nodes := make([]tnode[V], len(coords))
	t.root = buildSkeleton(nodes, coords, 0, len(coords))
	t.n = len(items)
	t.n0 = len(items)
	t.churn = 0

	// Route every item to its node, as route would: the walk follows the
	// search path of Lo, so it stops at a node whose center the interval
	// contains before running off the skeleton. Then counting-sort the
	// items by node into order: node j's group ends up in
	// order[end[j-1]:end[j]].
	end := make([]int32, len(coords)+1)
	dest := make([]int32, len(items))
	for i, sp := range spans {
		a, b := 0, len(coords)
		for {
			mid := a + (b-a)/2
			c := coords[mid]
			if sp.Contains(c) {
				dest[i] = int32(mid)
				break
			}
			if sp.Hi < c {
				b = mid
			} else {
				a = mid + 1
			}
		}
		end[dest[i]+1]++
	}
	for j := 1; j < len(end); j++ {
		end[j] += end[j-1] // end[j] is now where node j's group starts
	}
	order := make([]int32, len(items))
	for i, j := range dest {
		order[end[j]] = int32(i)
		end[j]++
	}

	// Bulk-build each node's byLo and byHi treaps from its group sorted by
	// (Lo, W) and by (Hi, W).
	type keyed struct {
		k treap.Key
		i int32
	}
	var es []keyed
	var keys []treap.Key
	var vals []V
	bulk := func(group []int32, hi bool) treap.Tree[V] {
		es = es[:0]
		for _, i := range group {
			k := treap.Key{K: spans[i].Lo, W: items[i].Weight}
			if hi {
				k.K = spans[i].Hi
			}
			es = append(es, keyed{k, i})
		}
		slices.SortFunc(es, func(a, b keyed) int { return a.k.Compare(b.k) })
		keys, vals = keys[:0], vals[:0]
		for _, e := range es {
			keys = append(keys, e.k)
			vals = append(vals, items[e.i].Value)
		}
		return treap.Build(keys, vals)
	}
	from := int32(0)
	for j := range nodes {
		group := order[from:end[j]]
		from = end[j]
		if len(group) == 0 {
			continue
		}
		nd := &nodes[j]
		nd.byLo = bulk(group, false)
		nd.byHi = bulk(group, true)
	}
}

func dedupSorted(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func buildSkeleton[V Spanned](nodes []tnode[V], coords []float64, a, b int) *tnode[V] {
	if a >= b {
		return nil
	}
	mid := a + (b-a)/2
	nd := &nodes[mid]
	nd.center = coords[mid]
	nd.left = buildSkeleton(nodes, coords, a, mid)
	nd.right = buildSkeleton(nodes, coords, mid+1, b)
	return nd
}

// route walks the skeleton along sp's search path, the one walk that
// place, Delete and CheckInvariants share. It returns the first node
// whose center sp contains, where sp's treap entries live; or, when the
// walk runs off the skeleton first, the last node visited, whose rest
// list holds sp (inRest). nd is nil only on an empty skeleton. The
// skeleton is fixed between rebuilds, so an item's route never changes
// while it is stored.
func (t *Tree[V]) route(sp Interval) (nd *tnode[V], inRest bool) {
	for nd = t.root; nd != nil; {
		if sp.Contains(nd.center) {
			return nd, false
		}
		next := nd.right
		if sp.Hi < nd.center {
			next = nd.left
		}
		if next == nil {
			return nd, true
		}
		nd = next
	}
	return nil, false
}

// place stores an item at the node its route names.
func (t *Tree[V]) place(it core.Item[V]) {
	sp := it.Value.Span()
	if t.root == nil {
		// Empty skeleton (built from zero items): a synthetic root
		// centred on the first item; later items that miss it go to its
		// rest list.
		t.root = &tnode[V]{center: sp.Lo}
	}
	nd, inRest := t.route(sp)
	if inRest {
		nd.rest = append(nd.rest, it)
	} else {
		nd.byLo.Insert(treap.Key{K: sp.Lo, W: it.Weight}, it.Value)
		nd.byHi.Insert(treap.Key{K: sp.Hi, W: it.Weight}, it.Value)
	}
	t.n++
}

// Len returns the number of stored items.
func (t *Tree[V]) Len() int { return t.n }

// ReportAbove implements core.Prioritized: emit every item containing q
// with weight ≥ tau.
func (t *Tree[V]) ReportAbove(c em.Charger, q float64, tau float64, emit func(core.Item[V]) bool) {
	emitted, pathNodes, restScanned := 0, 0, 0
	defer func() {
		t.chargeQuery(c, pathNodes, restScanned, emitted)
	}()

	visit := func(k treap.Key, v V) bool {
		emitted++
		return emit(core.Item[V]{Value: v, Weight: k.W})
	}
	nd := t.root
	for nd != nil {
		pathNodes++
		restScanned += len(nd.rest)
		for _, it := range nd.rest {
			if it.Weight >= tau && it.Value.Span().Contains(q) {
				emitted++
				if !emit(it) {
					return
				}
			}
		}
		switch {
		case q < nd.center:
			if !nd.byLo.PrefixReportAbove(q, tau, visit) {
				return
			}
			nd = nd.left
		case q > nd.center:
			if !nd.byHi.SuffixReportAbove(q, tau, visit) {
				return
			}
			nd = nd.right
		default: // q == center: every item at this node contains q
			nd.byLo.PrefixReportAbove(math.Inf(1), tau, visit)
			return
		}
	}
}

// MaxItem implements core.Max: the heaviest item containing q.
func (t *Tree[V]) MaxItem(c em.Charger, q float64) (core.Item[V], bool) {
	best := core.Item[V]{Weight: math.Inf(-1)}
	found := false
	pathNodes, restScanned := 0, 0

	nd := t.root
	for nd != nil {
		pathNodes++
		restScanned += len(nd.rest)
		for _, it := range nd.rest {
			if it.Weight > best.Weight && it.Value.Span().Contains(q) {
				best, found = it, true
			}
		}
		var k treap.Key
		var v V
		var ok bool
		switch {
		case q < nd.center:
			k, v, ok = nd.byLo.PrefixMax(q)
			if ok && k.W > best.Weight {
				best, found = core.Item[V]{Value: v, Weight: k.W}, true
			}
			nd = nd.left
		case q > nd.center:
			k, v, ok = nd.byHi.SuffixMax(q)
			if ok && k.W > best.Weight {
				best, found = core.Item[V]{Value: v, Weight: k.W}, true
			}
			nd = nd.right
		default:
			k, v, ok = nd.byLo.PrefixMax(math.Inf(1))
			if ok && k.W > best.Weight {
				best, found = core.Item[V]{Value: v, Weight: k.W}, true
			}
			nd = nil
		}
	}
	t.chargeQuery(c, pathNodes, restScanned, 0)
	return best, found
}

// Count returns the number of stored intervals containing q, in
// O(log² n) expected time / O(log_B n)-charged I/Os — the counting
// structure role in the Rahul–Janardan counting reduction (paper §2).
// For interval stabbing exact counting is easy, which the paper notes
// only improves that baseline.
func (t *Tree[V]) Count(c em.Charger, q float64) int {
	total, pathNodes := 0, 0
	nd := t.root
	for nd != nil {
		pathNodes++
		for _, it := range nd.rest {
			if it.Value.Span().Contains(q) {
				total++
			}
		}
		switch {
		case q < nd.center:
			total += nd.byLo.PrefixCount(q)
			nd = nd.left
		case q > nd.center:
			total += nd.byHi.SuffixCount(q)
			nd = nd.right
		default:
			total += nd.byLo.Len()
			nd = nil
		}
	}
	if t.tracker != nil {
		c.PathCost(pathNodes)
	}
	return total
}

// Insert implements core.Updatable. The tree keeps no weight index, so it
// cannot see a duplicate weight: the layer that owns the weight index
// (core.Expected, the facade engine) rejects one before it gets here.
// A malformed interval panics.
func (t *Tree[V]) Insert(it core.Item[V]) {
	if !it.Value.Span().Valid() {
		panic(fmt.Sprintf("interval: malformed interval %+v", it.Value.Span()))
	}
	t.place(it)
	t.chargeUpdate()
	t.bumpChurn()
}

// Delete implements core.Updatable: it follows the item's span to its
// node, as place did, and removes (Lo, W) and (Hi, W) from that node's
// treaps, or the item from its rest list.
func (t *Tree[V]) Delete(it core.Item[V]) bool {
	sp := it.Value.Span()
	nd, inRest := t.route(sp)
	switch {
	case nd == nil:
		return false
	case inRest:
		i := slices.IndexFunc(nd.rest, func(r core.Item[V]) bool {
			return r.Weight == it.Weight && r.Value.Span() == sp
		})
		if i < 0 {
			return false
		}
		last := len(nd.rest) - 1
		nd.rest[i] = nd.rest[last]
		nd.rest = nd.rest[:last]
	default:
		// Both keys must be present: a stored weight whose Lo or Hi
		// differs from sp's is another item and stays.
		hi := treap.Key{K: sp.Hi, W: it.Weight}
		if _, ok := nd.byHi.Get(hi); !ok {
			return false
		}
		if !nd.byLo.Delete(treap.Key{K: sp.Lo, W: it.Weight}) {
			return false
		}
		nd.byHi.Delete(hi)
	}
	t.n--
	t.chargeUpdate()
	t.bumpChurn()
	return true
}

func (t *Tree[V]) bumpChurn() {
	t.churn++
	if t.churn > t.n0/2+32 {
		t.build(t.collect())
	}
}

// Walk visits every stored item in unspecified order, stopping early if
// visit returns false.
func (t *Tree[V]) Walk(visit func(core.Item[V]) bool) {
	for _, it := range t.collect() {
		if !visit(it) {
			return
		}
	}
}

func (t *Tree[V]) collect() []core.Item[V] {
	items := make([]core.Item[V], 0, t.n)
	var walk func(nd *tnode[V])
	walk = func(nd *tnode[V]) {
		if nd == nil {
			return
		}
		nd.byLo.Ascend(func(k treap.Key, v V) bool {
			items = append(items, core.Item[V]{Value: v, Weight: k.W})
			return true
		})
		items = append(items, nd.rest...)
		walk(nd.left)
		walk(nd.right)
	}
	walk(t.root)
	return items
}

func (t *Tree[V]) chargeQuery(c em.Charger, pathNodes, restScanned, emitted int) {
	if t.tracker == nil {
		return
	}
	// Charge the contract of the cited black box: one skeleton descent
	// (O(log_B n) after blocking) plus the O(t/B) output term. The treap
	// walks are the RAM work realizing that contract; see the package
	// comment.
	c.PathCost(pathNodes)
	c.ScanCost(restScanned + emitted)
}

func (t *Tree[V]) chargeUpdate() {
	if t.tracker == nil {
		return
	}
	// One skeleton descent plus two treap updates: O(log n) nodes.
	t.tracker.PathCost(2 * approxLog2(t.n+2))
	t.tracker.ScanCost(1)
}

func approxLog2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// Depth returns the skeleton depth (for balance tests).
func (t *Tree[V]) Depth() int {
	var d func(*tnode[V]) int
	d = func(nd *tnode[V]) int {
		if nd == nil {
			return 0
		}
		l, r := d(nd.left), d(nd.right)
		if l < r {
			l = r
		}
		return l + 1
	}
	return d(t.root)
}
