package xsort

import (
	"cmp"
	"slices"
)

// Repeats returns, in increasing order, the indices i at which vs[i]
// equals some earlier vs[j], j < i: exactly the values an in-order scan
// with a seen-set would reject. Equality is ==, so NaN never repeats and
// -0 repeats +0. It builds no map: distinct values (the common case)
// cost one sorted copy and return nil; only when a repeat exists does it
// sort indices to name them in input order.
func Repeats(vs []float64) []int {
	s := slices.Clone(vs)
	slices.Sort(s)
	i := 1
	for i < len(s) && s[i] != s[i-1] {
		i++
	}
	if i >= len(s) {
		return nil
	}
	// cmp.Compare groups equal values (NaNs too, which == then skips)
	// and the index tie-break puts each group's first occurrence first.
	idx := make([]int, len(vs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(vs[a], vs[b]); c != 0 {
			return c
		}
		return a - b
	})
	var out []int
	first := 0
	for k := 1; k < len(idx); k++ {
		if vs[idx[k]] == vs[idx[first]] {
			out = append(out, idx[k])
		} else {
			first = k
		}
	}
	slices.Sort(out)
	return out
}
