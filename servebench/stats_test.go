package main

import (
	"testing"
	"time"
)

func TestPercentileReportsCountAndTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 1000 … 1, unsorted input
	}
	for _, c := range []struct {
		q          float64
		val        float64
		n, outside int
	}{
		{0.5, 500, 1000, 500},
		{0.99, 990, 1000, 10},
		{1, 1000, 1000, 0},
	} {
		if got := percentile(xs, c.q); got != (pct{c.val, c.n, c.outside}) {
			t.Errorf("percentile(%g) = %+v, want {%g %d %d}", c.q, got, c.val, c.n, c.outside)
		}
	}
	// Ties at the percentile are not beyond it.
	if got := percentile([]float64{3, 2, 2, 1, 2}, 0.5); got != (pct{2, 5, 1}) {
		t.Errorf("percentile with ties = %+v, want {2 5 1}", got)
	}
	if got := percentile(nil, 0.99); got != (pct{}) {
		t.Errorf("percentile of no samples = %+v, want zero", got)
	}
}

func TestMedianOfEvenCountAveragesMiddle(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestTooFewRequestsForP99IsAProblem(t *testing.T) {
	for _, n := range []int{minRequests - 1, minRequests} {
		r := &runner{cfg: config{w: workloads[0], minRequests: minRequests},
			vals: make(map[string]float64), na: make(map[string]bool), notes: make(map[string]string)}
		u := &loadStats{lat: make([]float64, n), elapsed: time.Second}
		r.readMetrics(u, &loadStats{}, nil, promSample{}, promSample{})
		if got, want := len(r.problems) > 0, n < minRequests; got != want {
			t.Errorf("%d requests: problem reported %v, want %v (%q)", n, got, want, r.problems)
		}
	}
}
