// Package halfspace implements the building blocks of the paper's
// Theorem 3 (top-k halfspace reporting) and, via the lifting trick,
// Corollary 1 (circular reporting):
//
//   - d = 2: convex-layer halfplane reporting (the Chazelle–Guibas–Lee
//     technique the paper cites), a weight-layered prioritized structure,
//     and a max structure built from hull-extreme emptiness tests through
//     core.MaxFromEmptiness — the role of §5.4's planar-subdivision point
//     location.
//   - d ≥ 3: a kd-tree with bounding-box and max-weight pruning, standing
//     in for partition trees (Afshani–Chan / Agarwal et al.): linear
//     space and O(n^(1-1/d) + t)-type query — sublinear with a positive
//     exponent gap, which is the regime Theorem 1's "no slowdown" remark
//     needs. See DESIGN.md's substitution table.
//
// A predicate is a halfplane/halfspace {x : A·x ≥ C}; an element satisfies
// it when it lies inside.
package halfspace

import (
	"cmp"
	"math"
	"slices"
)

// Pt2 is a point in ℝ².
type Pt2 struct {
	X, Y float64
}

// Dot returns a·x + b·y.
func (p Pt2) Dot(a, b float64) float64 { return a*p.X + b*p.Y }

// Halfplane is the predicate {(x, y) : A·x + B·y ≥ C}.
type Halfplane struct {
	A, B, C float64
}

// Contains reports whether p lies in the halfplane.
func (h Halfplane) Contains(p Pt2) bool { return p.Dot(h.A, h.B) >= h.C }

// Match is the predicate evaluator for the reductions.
func Match(q Halfplane, p Pt2) bool { return q.Contains(p) }

// Lambda is the polynomial-boundedness exponent for 2D halfplanes: every
// outcome q(D) is cut off by a line through at most two input points, so
// there are O(n²) outcomes.
const Lambda = 2

func cross(o, a, b Pt2) float64 {
	return (a.X-o.X)*(b.Y-o.Y) - (a.Y-o.Y)*(b.X-o.X)
}

// Hull is a convex hull split into its x-monotone lower and upper chains.
// Both chains run left to right and share their first and last vertices
// (for hulls with ≥ 2 distinct extreme-x points).
type Hull struct {
	Lower, Upper []Pt2
}

// BuildHull computes the convex hull of pts (Andrew's monotone chain).
// Collinear boundary points are KEPT: the convex-layers construction must
// peel every point on the hull boundary, not only the corners. pts is not
// modified.
func BuildHull(pts []Pt2) Hull {
	if len(pts) == 0 {
		return Hull{}
	}
	s := make([]Pt2, len(pts))
	copy(s, pts)
	slices.SortFunc(s, func(a, b Pt2) int {
		return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y))
	})
	// Deduplicate identical points.
	uniq := s[:0]
	for i, p := range s {
		if i == 0 || p != s[i-1] {
			uniq = append(uniq, p)
		}
	}
	s = uniq
	if len(s) == 1 {
		return Hull{Lower: []Pt2{s[0]}, Upper: []Pt2{s[0]}}
	}
	build := func(pts []Pt2) []Pt2 {
		var ch []Pt2
		for _, p := range pts {
			for len(ch) >= 2 && cross(ch[len(ch)-2], ch[len(ch)-1], p) < 0 {
				ch = ch[:len(ch)-1]
			}
			ch = append(ch, p)
		}
		return ch
	}
	lower := build(s)
	rev := make([]Pt2, len(s))
	for i, p := range s {
		rev[len(s)-1-i] = p
	}
	upperRev := build(rev) // right-to-left; reverse to run left-to-right
	upper := make([]Pt2, len(upperRev))
	for i, p := range upperRev {
		upper[len(upperRev)-1-i] = p
	}
	return Hull{Lower: lower, Upper: upper}
}

// Empty reports whether the hull has no vertices.
func (h Hull) Empty() bool { return len(h.Lower) == 0 }

// Vertices returns the hull boundary points counter-clockwise, each
// exactly once (degenerate collinear hulls would otherwise repeat interior
// points across the two chains).
func (h Hull) Vertices() []Pt2 {
	if h.Empty() {
		return nil
	}
	seen := make(map[Pt2]struct{}, len(h.Lower)+len(h.Upper))
	out := make([]Pt2, 0, len(h.Lower)+len(h.Upper))
	add := func(p Pt2) {
		if _, dup := seen[p]; !dup {
			seen[p] = struct{}{}
			out = append(out, p)
		}
	}
	for _, p := range h.Lower {
		add(p)
	}
	// Upper chain right-to-left to continue counter-clockwise.
	for i := len(h.Upper) - 2; i >= 1; i-- {
		add(h.Upper[i])
	}
	return out
}

// ExtremeDot returns the maximum of a·x + b·y over the hull vertices and a
// vertex attaining it, in O(log h) time.
func (h Hull) ExtremeDot(a, b float64) (best float64, arg Pt2) {
	if h.Empty() {
		return math.Inf(-1), Pt2{}
	}
	// Direction pointing up → extreme on the upper chain, down → lower;
	// horizontal → at a shared chain endpoint, present in both chains.
	chain := h.Lower
	if b > 0 {
		chain = h.Upper
	}
	i := chainExtreme(chain, a, b)
	return chain[i].Dot(a, b), chain[i]
}

// chainExtreme binary-searches an x-monotone convex chain for the vertex
// maximizing the dot product with (a, b). The dot-product sequence along
// such a chain is unimodal.
func chainExtreme(chain []Pt2, a, b float64) int {
	lo, hi := 0, len(chain)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if chain[mid+1].Dot(a, b) > chain[mid].Dot(a, b) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if chain[hi].Dot(a, b) > chain[lo].Dot(a, b) {
		return hi
	}
	return lo
}

// NonEmpty reports whether any hull vertex (equivalently, any point of the
// underlying set) lies in q.
func (h Hull) NonEmpty(q Halfplane) bool {
	best, _ := h.ExtremeDot(q.A, q.B)
	return best >= q.C
}
