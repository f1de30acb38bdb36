// Package wrand supplies the seeded randomness used by the paper's
// reductions: Bernoulli p-sampling (Lemmas 1 and 2), (1/K)-sampling
// (Lemma 3), and reproducible workload generation for the experiments.
//
// Every source is explicitly seeded so that structures, tests, and
// benchmark tables are reproducible run to run.
package wrand

import (
	"math"
	"math/rand/v2"

	"topk/internal/xsort"
)

// RNG is a seeded pseudo-random source (PCG under the hood).
type RNG struct {
	r *rand.Rand
}

// New returns an RNG seeded deterministically from seed.
func New(seed uint64) *RNG {
	return &RNG{r: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Split derives an independent child RNG; useful for giving each
// sub-structure its own stream without correlating their choices.
func (g *RNG) Split() *RNG {
	return New(g.r.Uint64())
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns an exponential variate with rate 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Bernoulli reports true with probability p (clamped to [0, 1]).
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomizes the order of n elements via swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// SampleIndices returns the indices of an independent p-sample of [0, n):
// each index is kept with probability p, independently. This is exactly the
// "p-sample set" of Section 3.1.
//
// For small p it skips over non-sampled indices using geometric jumps, so
// the cost is proportional to the sample size rather than to n.
func (g *RNG) SampleIndices(n int, p float64) []int {
	if n <= 0 || p <= 0 {
		return nil
	}
	if p >= 1 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	expected := float64(n) * p
	out := make([]int, 0, int(expected+4*math.Sqrt(expected)+8))
	// Geometric skipping: the gap to the next sampled index is
	// floor(ln U / ln(1-p)).
	logq := math.Log1p(-p)
	i := 0
	for {
		u := g.r.Float64()
		for u == 0 {
			u = g.r.Float64()
		}
		skip := int(math.Log(u) / logq)
		i += skip
		if i >= n {
			return out
		}
		out = append(out, i)
		i++
	}
}

// UniqueFloats returns n distinct float64 values drawn uniformly from
// (0, scale). Distinctness matches the paper's standing assumption that all
// weights are distinct (Section 1.1).
//
// The values are those of a draw-and-reject loop (skip zeros, skip a value
// already drawn) with no seen-set: it draws the missing values in one
// pass, then drops the repeats in draw order and draws again, which
// consumes the same random stream. Repeats are rare at any practical
// scale, so the common case is one pass and one sorted check.
func (g *RNG) UniqueFloats(n int, scale float64) []float64 {
	out := make([]float64, 0, n)
	for len(out) < n {
		for len(out) < n {
			if v := g.r.Float64() * scale; v != 0 {
				out = append(out, v)
			}
		}
		rep := xsort.Repeats(out)
		if len(rep) == 0 {
			break
		}
		kept, r := 0, 0
		for i, v := range out {
			if r < len(rep) && rep[r] == i {
				r++
				continue
			}
			out[kept] = v
			kept++
		}
		out = out[:kept]
	}
	return out
}
