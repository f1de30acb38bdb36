package halfspace

import (
	"fmt"
	"math"
	"slices"

	"topk/internal/core"
	"topk/internal/em"
)

// PtN is a point in ℝ^d for arbitrary fixed d.
type PtN struct {
	C []float64
}

// Dot returns the inner product with a (len(a) must equal the dimension).
func (p PtN) Dot(a []float64) float64 {
	s := 0.0
	for i, c := range p.C {
		s += a[i] * c
	}
	return s
}

// Halfspace is the predicate {x : A·x ≥ C} in ℝ^d.
type Halfspace struct {
	A []float64
	C float64
}

// Contains reports whether p lies in the halfspace.
func (h Halfspace) Contains(p PtN) bool { return p.Dot(h.A) >= h.C }

// ContainsPoint implements BoxQuery.
func (h Halfspace) ContainsPoint(c []float64) bool { return PtN{C: c}.Dot(h.A) >= h.C }

// ClassifyBox implements BoxQuery: the extrema of A·x over an axis box are
// attained at corners chosen coordinate-wise by the sign of A.
func (h Halfspace) ClassifyBox(lo, hi []float64) (inside, outside bool) {
	min, max := 0.0, 0.0
	for i, a := range h.A {
		p, q := a*lo[i], a*hi[i]
		if p > q {
			p, q = q, p
		}
		min += p
		max += q
	}
	return min >= h.C, max < h.C
}

// BoxQuery is a predicate region that can classify axis-aligned boxes,
// letting one kd-tree engine serve halfspaces, orthogonal ranges, and
// balls alike.
type BoxQuery interface {
	// ClassifyBox reports whether the box [lo, hi] lies fully inside the
	// region, or fully outside it (both false means it straddles the
	// boundary).
	ClassifyBox(lo, hi []float64) (inside, outside bool)
	// ContainsPoint reports whether a single point lies in the region.
	ContainsPoint(c []float64) bool
}

// MatchN is the predicate evaluator for the reductions.
func MatchN(q Halfspace, p PtN) bool { return q.Contains(p) }

// LambdaN returns the polynomial-boundedness exponent in dimension d:
// outcomes are cut off by hyperplanes through ≤ d input points, so there
// are O(n^d) of them.
func LambdaN(d int) float64 { return float64(d) }

// KDTree answers prioritized halfspace queries in ℝ^d with a kd-tree
// carrying bounding boxes and max-weight subtree augmentation. It stands
// in for the partition trees of Afshani–Chan / Agarwal et al. (see
// DESIGN.md): linear space, and a query term that grows as ~n^(1-1/d)
// (kd-tree crossing bound) plus output.
//
// KDTree implements core.Prioritized[Halfspace, PtN] and
// core.Max[Halfspace, PtN].
type KDTree struct {
	d       int
	n       int
	root    *kdnode
	tracker *em.Tracker
}

type kdnode struct {
	item        core.Item[PtN]
	box         []float64 // subtree bounding box, lo corner then hi corner
	maxW        float64   // subtree max weight
	left, right *kdnode
}

// bounds returns the lo and hi corners of the node's box.
func (nd *kdnode) bounds() (lo, hi []float64) {
	d := len(nd.box) / 2
	return nd.box[:d:d], nd.box[d:]
}

// NewKDTree builds a kd-tree over items in dimension d. tracker may be
// nil.
func NewKDTree(items []core.Item[PtN], d int, tracker *em.Tracker) (*KDTree, error) {
	if d < 1 {
		return nil, fmt.Errorf("halfspace: dimension %d", d)
	}
	if err := core.ValidateWeights(items); err != nil {
		return nil, err
	}
	for _, it := range items {
		if len(it.Value.C) != d {
			return nil, fmt.Errorf("halfspace: point with %d coordinates in dimension %d", len(it.Value.C), d)
		}
	}
	t := &KDTree{d: d, n: len(items), tracker: tracker}
	bld := kdBuilder{
		d:     d,
		nodes: make([]kdnode, len(items)),
		boxes: make([]float64, 2*d*len(items)),
	}
	t.root = bld.build(slices.Clone(items), 0)
	if tracker != nil && len(items) > 0 {
		// One node per point: coordinates, weight, and a 2d-word box.
		tracker.AllocRun(int(em.BlocksFor(len(items), 3*d+4, tracker.B())))
	}
	return t, nil
}

// kdBuilder hands out a tree's nodes and their lo/hi boxes from one slab
// each.
type kdBuilder struct {
	d     int
	nodes []kdnode
	boxes []float64 // 2d words per node
}

// build makes the subtree over items (which it reorders) at depth: the
// median of items under (C[dim], W) becomes the node, the lesser half its
// left subtree and the greater half its right. Selection is expected
// O(len(items)) per level, so the whole build is O(n log n); the box and
// max weight are joined bottom-up from the children in O(d) per node.
func (b *kdBuilder) build(items []core.Item[PtN], depth int) *kdnode {
	if len(items) == 0 {
		return nil
	}
	dim := depth % b.d
	mid := len(items) / 2
	selectKth(items, mid, dim)
	nd := &b.nodes[0]
	b.nodes = b.nodes[1:]
	*nd = kdnode{item: items[mid], box: b.boxes[: 2*b.d : 2*b.d], maxW: items[mid].Weight}
	b.boxes = b.boxes[2*b.d:]
	nd.left = b.build(items[:mid], depth+1)
	nd.right = b.build(items[mid+1:], depth+1)

	lo, hi := nd.bounds()
	for i := range lo {
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	growBox(lo, hi, nd.item.Value.C, nd.item.Value.C)
	for _, c := range [2]*kdnode{nd.left, nd.right} {
		if c != nil {
			clo, chi := c.bounds()
			growBox(lo, hi, clo, chi)
			if c.maxW > nd.maxW {
				nd.maxW = c.maxW
			}
		}
	}
	return nd
}

// growBox widens the box [lo, hi] to cover the box [clo, chi].
func growBox(lo, hi, clo, chi []float64) {
	for i := range lo {
		if clo[i] < lo[i] {
			lo[i] = clo[i]
		}
		if chi[i] > hi[i] {
			hi[i] = chi[i]
		}
	}
}

// kdCompare is the total order a kd split uses along dim: the coordinate,
// then the (distinct) weight.
func kdCompare(a, b *core.Item[PtN], dim int) int {
	ca, cb := a.Value.C[dim], b.Value.C[dim]
	switch {
	case ca < cb:
		return -1
	case ca > cb:
		return 1
	case a.Weight < b.Weight:
		return -1
	case a.Weight > b.Weight:
		return 1
	}
	return 0
}

// selectKth reorders items so items[k] has rank k under kdCompare, with
// every lesser item before it and every greater one after: quickselect
// with a median-of-three pivot. Once the partitions have scanned 6n items
// (expected total is under 3n) it sorts what remains instead, so a run of
// bad pivots costs O(n log n) at worst.
func selectKth(items []core.Item[PtN], k, dim int) {
	less := func(i, j int) bool { return kdCompare(&items[i], &items[j], dim) < 0 }
	swap := func(i, j int) { items[i], items[j] = items[j], items[i] }
	lo, hi := 0, len(items)-1
	for work := 0; hi > lo; {
		if work += hi - lo + 1; work > 6*len(items) {
			slices.SortFunc(items[lo:hi+1], func(a, b core.Item[PtN]) int { return kdCompare(&a, &b, dim) })
			return
		}
		// Order lo ≤ m ≤ hi; they then bound both scans below.
		m := lo + (hi-lo)/2
		if less(m, lo) {
			swap(m, lo)
		}
		if less(hi, lo) {
			swap(hi, lo)
		}
		if less(hi, m) {
			swap(hi, m)
		}
		if hi-lo < 3 {
			return
		}
		p := hi - 1
		swap(m, p)
		i, j := lo, p
		for {
			for i++; less(i, p); i++ {
			}
			for j--; less(p, j); j-- {
			}
			if i >= j {
				break
			}
			swap(i, j)
		}
		swap(i, p)
		switch {
		case k < i:
			hi = i - 1
		case k > i:
			lo = i + 1
		default:
			return
		}
	}
}

// N returns the number of indexed points.
func (t *KDTree) N() int { return t.n }

// ReportAbove implements core.Prioritized[Halfspace, PtN].
func (t *KDTree) ReportAbove(c em.Charger, q Halfspace, tau float64, emit func(core.Item[PtN]) bool) {
	t.ReportAboveBox(c, q, tau, emit)
}

// ReportAboveBox answers a prioritized query for any box-classifiable
// predicate region (halfspaces, orthogonal boxes, balls, ...).
func (t *KDTree) ReportAboveBox(c em.Charger, q BoxQuery, tau float64, emit func(core.Item[PtN]) bool) {
	// visited is a per-query local so concurrent queries never share state.
	var visited int64
	emitted := 0
	defer func() {
		if t.tracker != nil {
			// Visits attributable to emission (fully-inside subtrees) are
			// paid by the packed output scan; the residual frontier pays
			// the tree-walk cost.
			search := int(visited) - 2*emitted
			if search < 0 {
				search = 0
			}
			c.PathCost(search)
			c.ScanCost(emitted)
		}
	}()
	wrapped := func(it core.Item[PtN]) bool {
		emitted++
		return emit(it)
	}
	t.report(t.root, q, tau, wrapped, &visited)
}

func (t *KDTree) report(nd *kdnode, q BoxQuery, tau float64, emit func(core.Item[PtN]) bool, visited *int64) bool {
	if nd == nil || nd.maxW < tau {
		return true
	}
	*visited++
	inside, outside := q.ClassifyBox(nd.bounds())
	if outside {
		return true // box entirely outside
	}
	if inside {
		return t.reportSubtree(nd, tau, emit, visited) // box entirely inside
	}
	if nd.item.Weight >= tau && q.ContainsPoint(nd.item.Value.C) {
		if !emit(nd.item) {
			return false
		}
	}
	if !t.report(nd.left, q, tau, emit, visited) {
		return false
	}
	return t.report(nd.right, q, tau, emit, visited)
}

// reportSubtree emits everything with weight ≥ tau, geometry-free.
func (t *KDTree) reportSubtree(nd *kdnode, tau float64, emit func(core.Item[PtN]) bool, visited *int64) bool {
	if nd == nil || nd.maxW < tau {
		return true
	}
	*visited++
	if nd.item.Weight >= tau {
		if !emit(nd.item) {
			return false
		}
	}
	if !t.reportSubtree(nd.left, tau, emit, visited) {
		return false
	}
	return t.reportSubtree(nd.right, tau, emit, visited)
}

// MaxItem implements core.Max[Halfspace, PtN] by branch-and-bound on the
// max-weight augmentation.
func (t *KDTree) MaxItem(c em.Charger, q Halfspace) (core.Item[PtN], bool) {
	return t.MaxItemBox(c, q)
}

// MaxItemBox answers a max query for any box-classifiable predicate.
func (t *KDTree) MaxItemBox(c em.Charger, q BoxQuery) (core.Item[PtN], bool) {
	var visited int64
	best := core.Item[PtN]{Weight: math.Inf(-1)}
	found := false
	t.maxSearch(t.root, q, &best, &found, &visited)
	if t.tracker != nil {
		c.PathCost(int(visited))
	}
	return best, found
}

func (t *KDTree) maxSearch(nd *kdnode, q BoxQuery, best *core.Item[PtN], found *bool, visited *int64) {
	if nd == nil || nd.maxW <= best.Weight {
		return
	}
	*visited++
	inside, outside := q.ClassifyBox(nd.bounds())
	if outside {
		return
	}
	if inside {
		// Entire box inside: the subtree's max-weight item wins.
		it := t.findMaxW(nd, visited)
		if it.Weight > best.Weight {
			*best, *found = it, true
		}
		return
	}
	if q.ContainsPoint(nd.item.Value.C) && nd.item.Weight > best.Weight {
		*best, *found = nd.item, true
	}
	// Descend the heavier side first for stronger pruning.
	a, b := nd.left, nd.right
	if b != nil && (a == nil || b.maxW > a.maxW) {
		a, b = b, a
	}
	t.maxSearch(a, q, best, found, visited)
	t.maxSearch(b, q, best, found, visited)
}

func (t *KDTree) findMaxW(nd *kdnode, visited *int64) core.Item[PtN] {
	for {
		*visited++
		if nd.item.Weight == nd.maxW {
			return nd.item
		}
		if nd.left != nil && nd.left.maxW == nd.maxW {
			nd = nd.left
			continue
		}
		nd = nd.right
	}
}

// NewKDPrioritizedFactory adapts the constructor to the reduction factory
// signature for dimension d.
func NewKDPrioritizedFactory(d int, tracker *em.Tracker) core.PrioritizedFactory[Halfspace, PtN] {
	return func(items []core.Item[PtN]) core.Prioritized[Halfspace, PtN] {
		s, err := NewKDTree(items, d, tracker)
		if err != nil {
			panic(err)
		}
		return s
	}
}

// NewKDMaxFactory adapts the kd max path to the reduction factory
// signature for dimension d.
func NewKDMaxFactory(d int, tracker *em.Tracker) core.MaxFactory[Halfspace, PtN] {
	return func(items []core.Item[PtN]) core.Max[Halfspace, PtN] {
		s, err := NewKDTree(items, d, tracker)
		if err != nil {
			panic(err)
		}
		return s
	}
}
