// Package treap implements a weight-augmented balanced search tree
// (a treap with deterministic hashed priorities) used as the secondary
// structure inside the geometric indexes of this repository.
//
// Entries are keyed by a primary coordinate K with the entry's weight W as
// a tiebreak, and every subtree is augmented with the maximum weight it
// contains. This supports the two query families the paper's building
// blocks need:
//
//   - prefix/suffix reporting above a weight threshold: "report every
//     entry with K ≤ x (or K ≥ x) and W ≥ τ", output-sensitively, by
//     pruning subtrees whose max weight falls below τ;
//   - prefix/suffix max: "the heaviest entry with K ≤ x (or K ≥ x)".
//
// All operations run in O(log n) expected time plus output. Priorities are
// a deterministic hash of the key, so a tree's shape depends only on its
// key set — structures are reproducible and tests are deterministic.
package treap

import "math"

// Key orders entries by primary coordinate K, breaking ties by weight W.
// Under the paper's distinct-weights assumption a Key identifies an entry
// uniquely even when primary coordinates collide.
type Key struct {
	K float64 // primary search coordinate
	W float64 // entry weight (distinct across a structure)
}

// Less is the strict lexicographic order on (K, W).
func (a Key) Less(b Key) bool {
	if a.K != b.K {
		return a.K < b.K
	}
	return a.W < b.W
}

// Compare is the three-way form of Less, for slices.SortFunc: it sorts
// keys into the order Build expects.
func (a Key) Compare(b Key) int {
	switch {
	case a.Less(b):
		return -1
	case b.Less(a):
		return 1
	}
	return 0
}

type node[V any] struct {
	key         Key
	val         V
	prio        uint64
	maxW        float64 // max weight in this subtree
	size        int
	left, right *node[V]
}

// Tree is a max-weight-augmented treap. The zero value is an empty tree.
//
// Queries never mutate the tree (their I/O accounting is charged by the
// callers, who know the blocked layout), so any number of them may run
// concurrently; Insert and Delete require exclusive access.
type Tree[V any] struct {
	root *node[V]
}

// hashPrio derives a node priority from the key bits (splitmix64 finisher).
func hashPrio(k Key) uint64 {
	x := math.Float64bits(k.K) ^ (math.Float64bits(k.W) * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func (t *Tree[V]) pull(n *node[V]) {
	n.maxW = n.key.W
	n.size = 1
	if n.left != nil {
		n.size += n.left.size
		if n.left.maxW > n.maxW {
			n.maxW = n.left.maxW
		}
	}
	if n.right != nil {
		n.size += n.right.size
		if n.right.maxW > n.maxW {
			n.maxW = n.right.maxW
		}
	}
}

// splitLess splits into (keys < k, keys ≥ k).
func (t *Tree[V]) splitLess(n *node[V], k Key) (l, r *node[V]) {
	if n == nil {
		return nil, nil
	}
	if n.key.Less(k) {
		var rr *node[V]
		n.right, rr = t.splitLess(n.right, k)
		t.pull(n)
		return n, rr
	}
	var ll *node[V]
	ll, n.left = t.splitLess(n.left, k)
	t.pull(n)
	return ll, n
}

// splitLeq splits into (keys ≤ k, keys > k).
func (t *Tree[V]) splitLeq(n *node[V], k Key) (l, r *node[V]) {
	if n == nil {
		return nil, nil
	}
	if k.Less(n.key) {
		var ll *node[V]
		ll, n.left = t.splitLeq(n.left, k)
		t.pull(n)
		return ll, n
	}
	var rr *node[V]
	n.right, rr = t.splitLeq(n.right, k)
	t.pull(n)
	return n, rr
}

// merge joins a and b assuming every key in a precedes every key in b.
func (t *Tree[V]) merge(a, b *node[V]) *node[V] {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio >= b.prio {
		a.right = t.merge(a.right, b)
		t.pull(a)
		return a
	}
	b.left = t.merge(a, b.left)
	t.pull(b)
	return b
}

// Len returns the number of entries.
func (t *Tree[V]) Len() int {
	if t.root == nil {
		return 0
	}
	return t.root.size
}

// MaxWeight returns the maximum weight stored; ok is false when empty.
func (t *Tree[V]) MaxWeight() (float64, bool) {
	if t.root == nil {
		return 0, false
	}
	return t.root.maxW, true
}

// Build returns the tree holding keys[i] → vals[i], in O(n) time. keys
// must be strictly increasing under Key.Less (it panics otherwise) and
// vals as long as keys; neither slice is retained.
//
// Priorities are the same hashPrio(key) Insert assigns, and a treap is the
// unique Cartesian tree of its keys under (priority desc, key asc), so the
// result equals n Inserts node for node. It is built left to right with
// the rightmost path on a stack: each new key pops the lower-priority
// path nodes, which become its left subtree and are final once popped.
// The nodes come from one slab allocation.
func Build[V any](keys []Key, vals []V) Tree[V] {
	if len(keys) != len(vals) {
		panic("treap: Build with mismatched keys and values")
	}
	var t Tree[V]
	nodes := make([]node[V], len(keys))
	var stack []*node[V]
	for i, k := range keys {
		if i > 0 && !keys[i-1].Less(k) {
			panic("treap: Build keys not strictly increasing")
		}
		n := &nodes[i]
		n.key, n.val, n.prio = k, vals[i], hashPrio(k)
		var last *node[V]
		for len(stack) > 0 && stack[len(stack)-1].prio < n.prio {
			last = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			t.pull(last)
		}
		n.left = last
		if len(stack) > 0 {
			stack[len(stack)-1].right = n
		}
		stack = append(stack, n)
	}
	for i := len(stack) - 1; i >= 0; i-- {
		t.pull(stack[i])
	}
	if len(stack) > 0 {
		t.root = stack[0]
	}
	return t
}

// Insert adds an entry. Inserting an existing key replaces its value.
func (t *Tree[V]) Insert(k Key, v V) {
	t.Delete(k)
	n := &node[V]{key: k, val: v, prio: hashPrio(k)}
	t.pull(n)
	l, r := t.splitLess(t.root, k)
	t.root = t.merge(t.merge(l, n), r)
}

// Delete removes the entry with key k, reporting whether it existed.
func (t *Tree[V]) Delete(k Key) bool {
	l, rest := t.splitLess(t.root, k)
	mid, r := t.splitLeq(rest, k)
	t.root = t.merge(l, r)
	return mid != nil
}

// Get returns the value stored at k.
func (t *Tree[V]) Get(k Key) (v V, ok bool) {
	n := t.root
	for n != nil {
		switch {
		case k.Less(n.key):
			n = n.left
		case n.key.Less(k):
			n = n.right
		default:
			return n.val, true
		}
	}
	return v, false
}

// PrefixReportAbove calls visit for every entry with key.K ≤ x and weight
// ≥ tau, in unspecified order, stopping early if visit returns false. It
// reports whether enumeration ran to completion.
func (t *Tree[V]) PrefixReportAbove(x, tau float64, visit func(Key, V) bool) bool {
	return t.reportDir(t.root, x, tau, visit, true)
}

// SuffixReportAbove is the mirror: entries with key.K ≥ x and weight ≥ tau.
func (t *Tree[V]) SuffixReportAbove(x, tau float64, visit func(Key, V) bool) bool {
	return t.reportDir(t.root, x, tau, visit, false)
}

func (t *Tree[V]) reportDir(n *node[V], x, tau float64, visit func(Key, V) bool, prefix bool) bool {
	if n == nil {
		return true
	}
	if n.maxW < tau {
		return true
	}
	inRange := (prefix && n.key.K <= x) || (!prefix && n.key.K >= x)
	if inRange {
		// One side is entirely in range; the other still straddles x.
		full, straddle := n.left, n.right
		if !prefix {
			full, straddle = n.right, n.left
		}
		if !t.reportAll(full, tau, visit) {
			return false
		}
		if n.key.W >= tau && !visit(n.key, n.val) {
			return false
		}
		return t.reportDir(straddle, x, tau, visit, prefix)
	}
	// Node out of range: only the side toward x can hold in-range keys.
	if prefix {
		return t.reportDir(n.left, x, tau, visit, prefix)
	}
	return t.reportDir(n.right, x, tau, visit, prefix)
}

// reportAll emits every entry of the subtree with weight ≥ tau.
func (t *Tree[V]) reportAll(n *node[V], tau float64, visit func(Key, V) bool) bool {
	if n == nil {
		return true
	}
	if n.maxW < tau {
		return true
	}
	if !t.reportAll(n.left, tau, visit) {
		return false
	}
	if n.key.W >= tau && !visit(n.key, n.val) {
		return false
	}
	return t.reportAll(n.right, tau, visit)
}

// RangeReportAbove calls visit for every entry with lo ≤ key.K ≤ hi and
// weight ≥ tau, in unspecified order, stopping early if visit returns
// false. It reports whether enumeration ran to completion.
func (t *Tree[V]) RangeReportAbove(lo, hi, tau float64, visit func(Key, V) bool) bool {
	return t.rangeReport(t.root, lo, hi, tau, visit)
}

func (t *Tree[V]) rangeReport(n *node[V], lo, hi, tau float64, visit func(Key, V) bool) bool {
	if n == nil {
		return true
	}
	if n.maxW < tau {
		return true
	}
	switch {
	case n.key.K < lo:
		return t.rangeReport(n.right, lo, hi, tau, visit)
	case n.key.K > hi:
		return t.rangeReport(n.left, lo, hi, tau, visit)
	default:
		if !t.rangeReport(n.left, lo, hi, tau, visit) {
			return false
		}
		if n.key.W >= tau && !visit(n.key, n.val) {
			return false
		}
		return t.rangeReport(n.right, lo, hi, tau, visit)
	}
}

// RangeMax returns the heaviest entry with lo ≤ key.K ≤ hi.
func (t *Tree[V]) RangeMax(lo, hi float64) (k Key, v V, ok bool) {
	best := math.Inf(-1)
	var bestNode *node[V]
	var walk func(n *node[V])
	walk = func(n *node[V]) {
		if n == nil || n.maxW <= best {
			return
		}
		switch {
		case n.key.K < lo:
			walk(n.right)
		case n.key.K > hi:
			walk(n.left)
		default:
			if n.key.W > best {
				best, bestNode = n.key.W, n
			}
			// Both subtrees may intersect [lo, hi]; maxW pruning at the
			// recursion entry keeps the walk output-bounded.
			walk(n.left)
			walk(n.right)
		}
	}
	walk(t.root)
	if bestNode == nil {
		return k, v, false
	}
	return bestNode.key, bestNode.val, true
}

// RangeCount returns the number of entries with lo ≤ key.K ≤ hi, in
// O(log n) expected time via the size augmentation.
func (t *Tree[V]) RangeCount(lo, hi float64) int {
	return t.countLess(t.root, hi, true) - t.countLess(t.root, lo, false)
}

// countLess counts entries with key.K < x (orEqual=false) or ≤ x (true).
func (t *Tree[V]) countLess(n *node[V], x float64, orEqual bool) int {
	total := 0
	for n != nil {
		in := n.key.K < x || (orEqual && n.key.K == x)
		if in {
			total++
			if n.left != nil {
				total += n.left.size
			}
			n = n.right
		} else {
			n = n.left
		}
	}
	return total
}

// PrefixCount returns the number of entries with key.K ≤ x in O(log n)
// expected time.
func (t *Tree[V]) PrefixCount(x float64) int {
	return t.countLess(t.root, x, true)
}

// SuffixCount returns the number of entries with key.K ≥ x.
func (t *Tree[V]) SuffixCount(x float64) int {
	return t.Len() - t.countLess(t.root, x, false)
}

// PrefixMax returns the heaviest entry with key.K ≤ x.
func (t *Tree[V]) PrefixMax(x float64) (k Key, v V, ok bool) {
	return t.maxDir(x, true)
}

// SuffixMax returns the heaviest entry with key.K ≥ x.
func (t *Tree[V]) SuffixMax(x float64) (k Key, v V, ok bool) {
	return t.maxDir(x, false)
}

func (t *Tree[V]) maxDir(x float64, prefix bool) (k Key, v V, ok bool) {
	// Walk the search path for x; collect the best among the fully
	// in-range subtrees and in-range path nodes, then extract the argmax.
	var bestNode *node[V] // best in-range path node
	var bestSub *node[V]  // subtree holding the best candidate
	bestW := math.Inf(-1)
	n := t.root
	for n != nil {
		inRange := (prefix && n.key.K <= x) || (!prefix && n.key.K >= x)
		if inRange {
			full, straddle := n.left, n.right
			if !prefix {
				full, straddle = n.right, n.left
			}
			if n.key.W > bestW {
				bestW, bestNode, bestSub = n.key.W, n, nil
			}
			if full != nil && full.maxW > bestW {
				bestW, bestNode, bestSub = full.maxW, nil, full
			}
			n = straddle
			continue
		}
		if prefix {
			n = n.left
		} else {
			n = n.right
		}
	}
	if math.IsInf(bestW, -1) {
		return k, v, false
	}
	if bestSub != nil {
		bestNode = t.findMaxW(bestSub)
	}
	return bestNode.key, bestNode.val, true
}

// findMaxW descends to the node realizing the subtree's max weight.
func (t *Tree[V]) findMaxW(n *node[V]) *node[V] {
	for {
		if n.key.W == n.maxW {
			return n
		}
		if n.left != nil && n.left.maxW == n.maxW {
			n = n.left
			continue
		}
		n = n.right
	}
}

// Ascend visits every entry in key order, stopping early if visit returns
// false.
func (t *Tree[V]) Ascend(visit func(Key, V) bool) {
	t.ascend(t.root, visit)
}

func (t *Tree[V]) ascend(n *node[V], visit func(Key, V) bool) bool {
	if n == nil {
		return true
	}
	if !t.ascend(n.left, visit) {
		return false
	}
	if !visit(n.key, n.val) {
		return false
	}
	return t.ascend(n.right, visit)
}

// Height returns the tree height (0 for empty); exported for balance tests.
func (t *Tree[V]) Height() int { return height(t.root) }

func height[V any](n *node[V]) int {
	if n == nil {
		return 0
	}
	l, r := height(n.left), height(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}
