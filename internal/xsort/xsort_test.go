package xsort

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func lessDesc(a, b float64) bool { return a > b } // "best" = largest

func TestSelectTopKSmallCases(t *testing.T) {
	cases := []struct {
		in   []float64
		k    int
		want []float64
	}{
		{nil, 3, nil},
		{[]float64{5}, 0, nil},
		{[]float64{5}, 1, []float64{5}},
		{[]float64{1, 2, 3}, 2, []float64{3, 2}},
		{[]float64{3, 1, 2}, 5, []float64{3, 2, 1}},
		{[]float64{2, 2, 2, 1}, 2, []float64{2, 2}},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		got := SelectTopK(in, c.k, lessDesc)
		sort.Sort(sort.Reverse(sort.Float64Slice(got)))
		if len(got) != len(c.want) {
			t.Errorf("SelectTopK(%v, %d) returned %v, want %v", c.in, c.k, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SelectTopK(%v, %d) returned %v, want %v", c.in, c.k, got, c.want)
				break
			}
		}
	}
}

// Property: SelectTopK returns exactly the k largest values (as a multiset).
func TestSelectTopKProperty(t *testing.T) {
	f := func(vals []float64, kRaw uint8) bool {
		k := int(kRaw) % (len(vals) + 1)
		in := append([]float64(nil), vals...)
		got := append([]float64(nil), SelectTopK(in, k, lessDesc)...)
		sort.Sort(sort.Reverse(sort.Float64Slice(got)))

		want := append([]float64(nil), vals...)
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		if k > len(want) {
			k = len(want)
		}
		want = want[:k]
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestSelectTopKPreservesMultiset(t *testing.T) {
	f := func(vals []float64, kRaw uint8) bool {
		k := int(kRaw) % (len(vals) + 1)
		in := append([]float64(nil), vals...)
		SelectTopK(in, k, lessDesc)
		a := append([]float64(nil), vals...)
		b := append([]float64(nil), in...)
		sort.Float64s(a)
		sort.Float64s(b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTopKSortedDoesNotMutate(t *testing.T) {
	in := []float64{5, 1, 9, 3, 7}
	orig := append([]float64(nil), in...)
	got := TopKSorted(in, 3, lessDesc)
	want := []float64{9, 7, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopKSorted = %v, want %v", got, want)
		}
	}
	for i := range in {
		if in[i] != orig[i] {
			t.Fatalf("TopKSorted mutated input: %v", in)
		}
	}
}

func TestSelectRank(t *testing.T) {
	g := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + g.IntN(300)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = g.Float64()
		}
		r := 1 + g.IntN(n)
		sorted := append([]float64(nil), vals...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		want := sorted[r-1]
		got := SelectRank(append([]float64(nil), vals...), r, lessDesc)
		if got != want {
			t.Fatalf("SelectRank(n=%d, r=%d) = %v, want %v", n, r, got, want)
		}
	}
}

func TestSelectRankPanicsOutOfRange(t *testing.T) {
	for _, r := range []int{0, 4, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SelectRank(len=3, r=%d) did not panic", r)
				}
			}()
			SelectRank([]float64{1, 2, 3}, r, lessDesc)
		}()
	}
}

func TestCollectorBasics(t *testing.T) {
	c := NewCollector(3, lessDesc)
	for _, v := range []float64{4, 1, 7, 3, 9, 2} {
		c.Offer(v)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if w, ok := c.Worst(); !ok || w != 4 {
		t.Fatalf("Worst = %v,%v, want 4,true", w, ok)
	}
	got := c.Items()
	want := []float64{9, 7, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Items = %v, want %v", got, want)
		}
	}
}

func TestCollectorZeroK(t *testing.T) {
	c := NewCollector(0, lessDesc)
	c.Offer(5)
	if c.Len() != 0 {
		t.Fatalf("k=0 collector retained %d items", c.Len())
	}
	if _, ok := c.Worst(); ok {
		t.Fatal("k=0 collector reported a worst element")
	}
	if got := c.Items(); len(got) != 0 {
		t.Fatalf("k=0 collector Items = %v", got)
	}
}

func TestCollectorMatchesSort(t *testing.T) {
	g := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 100; trial++ {
		n := g.IntN(500)
		k := g.IntN(20) + 1
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = g.Float64()
		}
		c := NewCollector(k, lessDesc)
		for _, v := range vals {
			c.Offer(v)
		}
		got := c.Items()
		want := TopKSorted(vals, k, lessDesc)
		if len(got) != len(want) {
			t.Fatalf("collector kept %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: collector %v, want %v", trial, got, want)
			}
		}
	}
}

func TestSortPrefix(t *testing.T) {
	s := []float64{2, 9, 4, 7, 1}
	SelectTopK(s, 3, lessDesc)
	SortPrefix(s, 3, lessDesc)
	want := []float64{9, 7, 4}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("prefix = %v, want %v", s[:3], want)
		}
	}
	SortPrefix(s, 99, lessDesc) // k > len must not panic
}

func BenchmarkSelectTopK(b *testing.B) {
	g := rand.New(rand.NewPCG(9, 9))
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = g.Float64()
	}
	buf := make([]float64, len(vals))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, vals)
		SelectTopK(buf, 100, lessDesc)
	}
}

// repeatsSeenSet is the in-order seen-set scan Repeats must agree with.
func repeatsSeenSet(vs []float64) []int {
	var out []int
	seen := map[float64]bool{}
	for i, v := range vs {
		if seen[v] {
			out = append(out, i)
		}
		seen[v] = true
	}
	return out
}

func TestRepeatsMatchesSeenSet(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	cases := [][]float64{
		nil,
		{1},
		{1, 2, 3},
		{3, 1, 3, 2, 1, 3},
		{nan, nan, 1, nan},
		{negZero, 0, 0, negZero},
		{inf, -inf, inf, 5, -inf},
	}
	g := rand.New(rand.NewPCG(1, 2))
	for n := 0; n < 200; n++ {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(g.IntN(n/2 + 1)) // many repeats
		}
		cases = append(cases, vs)
	}
	for _, vs := range cases {
		got, want := Repeats(vs), repeatsSeenSet(vs)
		if len(got) != len(want) {
			t.Fatalf("Repeats(%v) = %v, want %v", vs, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Repeats(%v) = %v, want %v", vs, got, want)
			}
		}
	}
}
