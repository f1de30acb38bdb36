package wrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at step %d", i)
		}
	}
	c := New(8)
	same := 0
	a = New(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestBernoulliEdges(t *testing.T) {
	g := New(1)
	for i := 0; i < 32; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if g.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !g.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	g := New(42)
	const trials = 200000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < trials; i++ {
			if g.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%g) empirical mean %g, want within 0.01", p, got)
		}
	}
}

func TestSampleIndicesDistribution(t *testing.T) {
	g := New(3)
	const n, p, trials = 1000, 0.05, 2000
	total := 0
	for trial := 0; trial < trials; trial++ {
		s := g.SampleIndices(n, p)
		total += len(s)
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				t.Fatalf("sample indices not strictly increasing: %d then %d", s[i-1], s[i])
			}
		}
		if len(s) > 0 && (s[0] < 0 || s[len(s)-1] >= n) {
			t.Fatalf("sample index out of range: %v", s)
		}
	}
	mean := float64(total) / trials
	want := float64(n) * p
	if math.Abs(mean-want) > 2 {
		t.Errorf("mean sample size %g, want ~%g", mean, want)
	}
}

func TestSampleIndicesPerPositionRate(t *testing.T) {
	// Each individual index must be included with probability p, not just
	// the aggregate count: geometric skipping must not bias positions.
	g := New(11)
	const n, p, trials = 50, 0.3, 60000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		for _, i := range g.SampleIndices(n, p) {
			counts[i]++
		}
	}
	for i, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-p) > 0.015 {
			t.Errorf("index %d sampled at rate %g, want ~%g", i, got, p)
		}
	}
}

func TestSampleIndicesEdges(t *testing.T) {
	g := New(5)
	if s := g.SampleIndices(0, 0.5); len(s) != 0 {
		t.Errorf("SampleIndices(0, .5) = %v, want empty", s)
	}
	if s := g.SampleIndices(10, 0); len(s) != 0 {
		t.Errorf("SampleIndices(10, 0) = %v, want empty", s)
	}
	s := g.SampleIndices(10, 1)
	if len(s) != 10 {
		t.Fatalf("SampleIndices(10, 1) returned %d indices, want 10", len(s))
	}
	for i, v := range s {
		if v != i {
			t.Fatalf("SampleIndices(10, 1)[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestUniqueFloats(t *testing.T) {
	g := New(9)
	vs := g.UniqueFloats(5000, 100)
	if len(vs) != 5000 {
		t.Fatalf("got %d values, want 5000", len(vs))
	}
	seen := make(map[float64]struct{}, len(vs))
	for _, v := range vs {
		if v <= 0 || v >= 100 {
			t.Fatalf("value %g out of (0, 100)", v)
		}
		if _, dup := seen[v]; dup {
			t.Fatalf("duplicate weight %g", v)
		}
		seen[v] = struct{}{}
	}
}

// uniqueFloatsMap is the seen-set form UniqueFloats must reproduce
// byte for byte: the same values, in the same order, leaving the RNG in
// the same state.
func (g *RNG) uniqueFloatsMap(n int, scale float64) []float64 {
	seen := make(map[float64]struct{}, n)
	out := make([]float64, 0, n)
	for len(out) < n {
		v := g.r.Float64() * scale
		if v == 0 {
			continue
		}
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

func TestUniqueFloatsMatchesSeenSet(t *testing.T) {
	cases := []struct {
		n     int
		scale float64
		rare  bool // zeros and repeats are certain: more than n draws
	}{
		{0, 1, false}, {1, 1, false}, {5000, 100, false}, {1 << 15, 1e9, false},
		// 1e-321 leaves ~200 denormals: zeros and repeats are frequent.
		{150, 1e-321, true},
		// 4e-323 rounds every draw to one of nine multiples of the
		// smallest denormal, zero among them.
		{7, 4e-323, true},
	}
	for _, c := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			got, want := New(seed), New(seed)
			a, b := got.UniqueFloats(c.n, c.scale), want.uniqueFloatsMap(c.n, c.scale)
			if len(a) != len(b) {
				t.Fatalf("n=%d scale=%g seed=%d: %d values, want %d", c.n, c.scale, seed, len(a), len(b))
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("n=%d scale=%g seed=%d: value %d is %g, want %g", c.n, c.scale, seed, i, a[i], b[i])
				}
			}
			next := got.Uint64()
			if next != want.Uint64() {
				t.Fatalf("n=%d scale=%g seed=%d: RNG state diverged after the draw", c.n, c.scale, seed)
			}
			if c.rare {
				plain := New(seed)
				for i := 0; i < c.n; i++ {
					plain.Float64()
				}
				if plain.Uint64() == next {
					t.Fatalf("n=%d scale=%g seed=%d: no zero or repeat was drawn", c.n, c.scale, seed)
				}
			}
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	g := New(13)
	a := g.Split()
	b := g.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split RNGs produced %d/100 identical outputs", same)
	}
}
