package main

import (
	"math"
	"sort"
)

// pct is one percentile of a sample: its value, the sample count, and
// how many samples lie strictly above it. A tail percentile is only as
// good as Beyond: the p99 of 1000 samples rests on ten.
type pct struct {
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs,
// sorting xs in place. An empty sample reports the zero pct.
func percentile(xs []float64, q float64) pct {
	if len(xs) == 0 {
		return pct{}
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	v := xs[i]
	above := len(xs) - sort.Search(len(xs), func(j int) bool { return xs[j] > v })
	return pct{Value: v, N: len(xs), Beyond: above}
}

// median is the median of xs (sorted in place): the middle value, or
// the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[m-1] + xs[m]) / 2
	}
	return xs[m]
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
