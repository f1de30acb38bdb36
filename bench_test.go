// Benchmarks, one per experiment of DESIGN.md §5 (the paper has no tables
// or figures of its own; E1–E16 measure its theorems and lemmas). Each
// benchmark exercises the experiment's central operation and reports
// simulated I/Os per operation alongside wall-clock time. The full sweep
// tables are produced by cmd/topk-bench; EXPERIMENTS.md records both.
package topk

import (
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"topk/internal/circular"
	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/enclosure"
	"topk/internal/halfspace"
	"topk/internal/interval"
	"topk/internal/wrand"
)

// noIO is the charger the benchmarks below query through: they time
// structures built without a tracker, which charge it nothing.
var noIO = em.NewTracker(em.DefaultConfig())

const benchSeed = 42

// reportIOs attaches the simulated I/O metric to a facade benchmark.
func reportIOs(b *testing.B, st Stats) {
	b.ReportMetric(float64(st.IOs())/float64(b.N), "ios/op")
}

// BenchmarkE01_Lemma1RankSampling measures one rank-sampling trial
// (Lemma 1): drawing a p-sample and checking both bullets.
func BenchmarkE01_Lemma1RankSampling(b *testing.B) {
	g := wrand.New(benchSeed)
	lp := core.Lemma1Params{N: 100000, K: 1000, P: 0.03, Delta: 0.1}
	fails := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !core.Lemma1Trial(g, lp) {
			fails++
		}
	}
	b.ReportMetric(float64(fails)/float64(b.N), "failrate")
}

// BenchmarkE02_Lemma3SampleMax measures one (1/K)-sample max trial
// (Lemma 3).
func BenchmarkE02_Lemma3SampleMax(b *testing.B) {
	g := wrand.New(benchSeed)
	succ := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.Lemma3Trial(g, 8192, 512) {
			succ++
		}
	}
	b.ReportMetric(float64(succ)/float64(b.N), "successrate")
}

// BenchmarkE03_CoreSetConstruction measures drawing one Lemma 2 core-set
// over 2^16 intervals.
func BenchmarkE03_CoreSetConstruction(b *testing.B) {
	g := wrand.New(benchSeed)
	items := genBenchIntervals(1 << 16)
	cp := core.CoreSetParams{N: len(items), K: 1024, Lambda: interval.Lambda}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.CoreSet(g, items, cp)
	}
}

func genBenchIntervals(n int) []core.Item[interval.Interval] {
	g := wrand.New(benchSeed)
	ws := g.UniqueFloats(n, 1e9)
	items := make([]core.Item[interval.Interval], n)
	for i := range items {
		lo := g.Float64() * 100
		items[i] = core.Item[interval.Interval]{
			Value:  interval.Interval{Lo: lo, Hi: lo + g.ExpFloat64()*15},
			Weight: ws[i],
		}
	}
	return items
}

func genFacadeIntervals(n int) []IntervalItem[int] {
	g := wrand.New(benchSeed)
	ws := g.UniqueFloats(n, 1e9)
	items := make([]IntervalItem[int], n)
	for i := range items {
		lo := g.Float64() * 100
		items[i] = IntervalItem[int]{Lo: lo, Hi: lo + g.ExpFloat64()*15, Weight: ws[i], Data: i}
	}
	return items
}

// benchIntervalTopK measures top-k interval queries under one reduction.
func benchIntervalTopK(b *testing.B, r Reduction, n, k int) {
	ix, err := NewIntervalIndex(genFacadeIntervals(n), WithReduction(r), WithSeed(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]float64, 64)
	g := wrand.New(benchSeed + 1)
	for i := range qs {
		qs[i] = g.Float64() * 100
	}
	ix.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.TopK(qs[i%len(qs)], k)
	}
	b.StopTimer()
	reportIOs(b, ix.Stats())
}

// BenchmarkE04_Theorem1Query: worst-case reduction query cost (Thm 1).
func BenchmarkE04_Theorem1Query(b *testing.B) {
	benchIntervalTopK(b, WorstCase, 1<<16, 16)
}

// BenchmarkE05_Theorem2Query: expected reduction query cost (Thm 2).
func BenchmarkE05_Theorem2Query(b *testing.B) {
	benchIntervalTopK(b, Expected, 1<<16, 16)
}

// BenchmarkE06_FaceOff compares all four reductions on the same workload
// and k sweep (the E6 table's axes, as sub-benchmarks).
func BenchmarkE06_FaceOff(b *testing.B) {
	for _, r := range []Reduction{BinarySearch, WorstCase, Expected, FullScan} {
		for _, k := range []int{1, 64, 1024} {
			r, k := r, k
			b.Run(r.String()+"/k="+itoa(k), func(b *testing.B) {
				benchIntervalTopK(b, r, 1<<15, k)
			})
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkE07_IntervalUpdate: Theorem 4's dynamic path — alternating
// insert/delete on the Expected-reduction interval index.
func BenchmarkE07_IntervalUpdate(b *testing.B) {
	ix, err := NewIntervalIndex(genFacadeIntervals(1<<14), WithReduction(Expected), WithSeed(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	g := wrand.New(benchSeed + 2)
	ix.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := 2e9 + float64(i)
		lo := g.Float64() * 100
		if err := ix.Insert(IntervalItem[int]{Lo: lo, Hi: lo + 5, Weight: w}); err != nil {
			b.Fatal(err)
		}
		if _, err := ix.Delete(w); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportIOs(b, ix.Stats())
}

// BenchmarkE08_EnclosureQuery: Theorem 5 on the dating workload.
func BenchmarkE08_EnclosureQuery(b *testing.B) {
	g := wrand.New(benchSeed)
	const n = 1 << 14
	ws := g.UniqueFloats(n, 1e9)
	items := make([]RectItem[int], n)
	for i := range items {
		x1, y1 := 18+g.Float64()*40, 140+g.Float64()*50
		items[i] = RectItem[int]{
			X1: x1, X2: x1 + 2 + g.ExpFloat64()*10,
			Y1: y1, Y2: y1 + 2 + g.ExpFloat64()*20,
			Weight: ws[i],
		}
	}
	ix, err := NewEnclosureIndex(items, WithSeed(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	ix.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.TopK(18+float64(i%45), 140+float64(i%60), 10)
	}
	b.StopTimer()
	reportIOs(b, ix.Stats())
}

// BenchmarkE09_DominanceQuery: Theorem 6 on the hotel workload.
func BenchmarkE09_DominanceQuery(b *testing.B) {
	g := wrand.New(benchSeed)
	const n = 1 << 13
	ws := g.UniqueFloats(n, 1e9)
	items := make([]DominanceItem[int], n)
	for i := range items {
		items[i] = DominanceItem[int]{
			X: 40 + g.ExpFloat64()*120, Y: g.ExpFloat64() * 8, Z: g.Float64() * 10,
			Weight: ws[i],
		}
	}
	ix, err := NewDominanceIndex(items, WithSeed(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	ix.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.TopK(80+float64(i%300), 2+float64(i%12), 2+float64(i%8), 10)
	}
	b.StopTimer()
	reportIOs(b, ix.Stats())
}

// BenchmarkE10_HalfplaneQuery: Theorem 3, d = 2.
func BenchmarkE10_HalfplaneQuery(b *testing.B) {
	g := wrand.New(benchSeed)
	const n = 1 << 13
	ws := g.UniqueFloats(n, 1e9)
	items := make([]PointItem2[int], n)
	for i := range items {
		items[i] = PointItem2[int]{X: g.NormFloat64() * 10, Y: g.NormFloat64() * 10, Weight: ws[i]}
	}
	ix, err := NewHalfplaneIndex(items, WithSeed(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	qs := make([][3]float64, 32)
	for i := range qs {
		th := g.Float64() * 2 * math.Pi
		qs[i] = [3]float64{math.Cos(th), math.Sin(th), g.NormFloat64() * 8}
	}
	ix.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		ix.TopK(q[0], q[1], q[2], 10)
	}
	b.StopTimer()
	reportIOs(b, ix.Stats())
}

// BenchmarkE11_Halfspace4D: Theorem 3, d ≥ 4 (worst-case reduction over
// the kd-tree black box).
func BenchmarkE11_Halfspace4D(b *testing.B) {
	g := wrand.New(benchSeed)
	const n, d = 1 << 13, 4
	ws := g.UniqueFloats(n, 1e9)
	items := make([]PointItemN[int], n)
	for i := range items {
		c := make([]float64, d)
		for j := range c {
			c[j] = g.NormFloat64() * 10
		}
		items[i] = PointItemN[int]{Coords: c, Weight: ws[i]}
	}
	ix, err := NewHalfspaceIndex(items, d, WithReduction(WorstCase), WithSeed(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	normal := []float64{0.5, -0.5, 0.5, 0.5}
	ix.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.TopK(normal, float64(i%20)-10, 16)
	}
	b.StopTimer()
	reportIOs(b, ix.Stats())
}

// BenchmarkE12_CircularQuery: Corollary 1 (lifting).
func BenchmarkE12_CircularQuery(b *testing.B) {
	g := wrand.New(benchSeed)
	const n, d = 1 << 13, 2
	ws := g.UniqueFloats(n, 1e9)
	items := make([]PointItemN[int], n)
	for i := range items {
		items[i] = PointItemN[int]{Coords: []float64{g.NormFloat64() * 10, g.NormFloat64() * 10}, Weight: ws[i]}
	}
	ix, err := NewCircularIndex(items, d, WithSeed(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	ix.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.TopK([]float64{float64(i%9) - 4, float64(i%7) - 3}, 8, 10)
	}
	b.StopTimer()
	reportIOs(b, ix.Stats())
}

// BenchmarkE13_DynamicInsert: Theorem 2 insertion (the O(1)-copies path).
func BenchmarkE13_DynamicInsert(b *testing.B) {
	ix, err := NewIntervalIndex(genFacadeIntervals(1<<14), WithReduction(Expected), WithSeed(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	g := wrand.New(benchSeed + 3)
	ix.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := g.Float64() * 100
		if err := ix.Insert(IntervalItem[int]{Lo: lo, Hi: lo + 5, Weight: 3e9 + float64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportIOs(b, ix.Stats())
}

// BenchmarkE14_ExpectedBuild: Theorem 2 construction (prioritized + the
// geometric sample ladder of max structures).
func BenchmarkE14_ExpectedBuild(b *testing.B) {
	items := genFacadeIntervals(1 << 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewIntervalIndex(items, WithReduction(Expected), WithSeed(benchSeed)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15_WorstCaseBuild: Theorem 1 construction (nested core-sets
// plus the large-k ladder).
func BenchmarkE15_WorstCaseBuild(b *testing.B) {
	items := genFacadeIntervals(1 << 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewIntervalIndex(items, WithReduction(WorstCase), WithSeed(benchSeed)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE16_RoundAlgorithm isolates the Theorem 2 round algorithm on a
// large-k query, reporting the observed mean rounds.
func BenchmarkE16_RoundAlgorithm(b *testing.B) {
	items := genBenchIntervals(1 << 15)
	exp, err := core.NewExpected(items, interval.Match[interval.Interval],
		interval.NewPrioritizedFactory[interval.Interval](nil),
		interval.NewMaxFactory[interval.Interval](nil),
		core.ExpectedOptions{B: 64, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	g := wrand.New(benchSeed + 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.TopK(noIO, g.Float64()*100, 512)
	}
	b.StopTimer()
	st := exp.Stats()
	if st.Queries > 0 {
		b.ReportMetric(float64(st.Rounds)/float64(st.Queries), "rounds/op")
	}
}

// BenchmarkE17_WarmCacheQuery measures a repeated query against a warm EM
// cache (the Aggarwal–Vitter memory makes block reuse free).
func BenchmarkE17_WarmCacheQuery(b *testing.B) {
	ix, err := NewIntervalIndex(genFacadeIntervals(1<<15), WithMemBlocks(512), WithSeed(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	ix.TopK(42, 16) // warm the cache
	ix.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.TopK(42, 16)
	}
	b.StopTimer()
	reportIOs(b, ix.Stats())
}

// BenchmarkE18_RangeTopK: the 1D top-k range-reporting extension (the
// survey's headline problem) through the public API.
func BenchmarkE18_RangeTopK(b *testing.B) {
	g := wrand.New(benchSeed)
	const n = 1 << 15
	ws := g.UniqueFloats(n, 1e9)
	items := make([]PointItem1[int], n)
	for i := range items {
		items[i] = PointItem1[int]{Pos: g.Float64() * 100, Weight: ws[i]}
	}
	ix, err := NewRangeIndex(items, WithSeed(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	ix.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := float64(i % 80)
		ix.TopK(lo, lo+20, 10)
	}
	b.StopTimer()
	reportIOs(b, ix.Stats())
}

// BenchmarkE19_CascadedStabbingMax: fractional-cascading ablation — the
// cascaded 2D stabbing-max query (compare with BenchmarkE19_PlainStabbingMax).
func BenchmarkE19_CascadedStabbingMax(b *testing.B) {
	benchEnclosureMax(b, true)
}

// BenchmarkE19_PlainStabbingMax is the uncascaded counterpart.
func BenchmarkE19_PlainStabbingMax(b *testing.B) {
	benchEnclosureMax(b, false)
}

func benchEnclosureMax(b *testing.B, cascade bool) {
	g := wrand.New(benchSeed)
	const n = 1 << 14
	ws := g.UniqueFloats(n, 1e9)
	items := make([]core.Item[enclosure.Rect], n)
	for i := range items {
		x1, y1 := 18+g.Float64()*40, 140+g.Float64()*50
		items[i] = core.Item[enclosure.Rect]{
			Value:  enclosure.Rect{X1: x1, X2: x1 + 2 + g.ExpFloat64()*10, Y1: y1, Y2: y1 + 2 + g.ExpFloat64()*20},
			Weight: ws[i],
		}
	}
	var m core.Max[enclosure.Pt2, enclosure.Rect]
	var err error
	if cascade {
		m, err = enclosure.NewMaxCascade(items, nil)
	} else {
		m, err = enclosure.NewMax(items, nil)
	}
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MaxItem(noIO, enclosure.Pt2{X: 18 + float64(i%45), Y: 140 + float64(i%60)})
	}
}

// BenchmarkE20_SigmaLadder: Theorem 2 queries at the paper's σ = 1/20
// (the σ sweep itself lives in cmd/topk-bench -exp E20).
func BenchmarkE20_SigmaLadder(b *testing.B) {
	items := genBenchIntervals(1 << 14)
	exp, err := core.NewExpected(items, interval.Match[interval.Interval],
		interval.NewPrioritizedFactory[interval.Interval](nil),
		interval.NewMaxFactory[interval.Interval](nil),
		core.ExpectedOptions{B: 64, Sigma: core.DefaultSigma, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	g := wrand.New(benchSeed + 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.TopK(noIO, g.Float64()*100, 64)
	}
}

// BenchmarkE21_SmallF: Theorem 1 queries at the E21-preferred FScale.
func BenchmarkE21_SmallF(b *testing.B) {
	items := genBenchIntervals(1 << 14)
	wc, err := core.NewWorstCase(items, interval.Match[interval.Interval],
		interval.NewPrioritizedFactory[interval.Interval](nil),
		core.WorstCaseOptions{B: 64, Lambda: interval.Lambda, FScale: 0.1, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	g := wrand.New(benchSeed + 21)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wc.TopK(noIO, g.Float64()*100, 16)
	}
}

// BenchmarkE22_DirectBall vs BenchmarkE22_LiftedBall: Corollary 1 ablation.
func BenchmarkE22_LiftedBall(b *testing.B) { benchBall(b, true) }

// BenchmarkE22_DirectBall is the unlifted counterpart.
func BenchmarkE22_DirectBall(b *testing.B) { benchBall(b, false) }

func benchBall(b *testing.B, lifted bool) {
	g := wrand.New(benchSeed)
	const n, d = 1 << 14, 2
	ws := g.UniqueFloats(n, 1e9)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{g.NormFloat64() * 10, g.NormFloat64() * 10}
	}
	var pri core.Prioritized[circular.Ball, halfspace.PtN]
	var err error
	if lifted {
		pri, err = circular.NewIndex(pts, ws, d, nil)
	} else {
		pri, err = circular.NewDirectIndex(pts, ws, d, nil)
	}
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ball := circular.Ball{Center: []float64{float64(i%9 - 4), float64(i%7 - 3)}, R: 1.5}
		pri.ReportAbove(noIO, ball, math.Inf(-1), func(core.Item[halfspace.PtN]) bool { return true })
	}
}

// BenchmarkE23_PrioritizedFromTopK: the §1.2 reverse reduction answering a
// prioritized query through a top-k structure with doubling.
func BenchmarkE23_PrioritizedFromTopK(b *testing.B) {
	items := genBenchIntervals(1 << 14)
	exp, err := core.NewExpected(items, interval.Match[interval.Interval],
		interval.NewPrioritizedFactory[interval.Interval](nil),
		interval.NewMaxFactory[interval.Interval](nil),
		core.ExpectedOptions{B: 64, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	adapted := core.NewPrioritizedFromTopK[float64, interval.Interval](exp, 64)
	g := wrand.New(benchSeed + 23)
	sorted := append([]core.Item[interval.Interval](nil), items...)
	core.SortByWeightDesc(sorted)
	tau := sorted[len(sorted)/100].Weight // ~top-1% threshold
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adapted.ReportAbove(noIO, g.Float64()*100, tau, func(core.Item[interval.Interval]) bool { return true })
	}
}

// BenchmarkE25_OverlayInsert: one insert through the logarithmic-method
// dynamization overlay (WithUpdates), amortized over tail flushes and
// level merges.
func BenchmarkE25_OverlayInsert(b *testing.B) {
	g := wrand.New(benchSeed + 25)
	items := make([]IntervalItem[int], 1<<13)
	for i := range items {
		lo := g.Float64() * 100
		items[i] = IntervalItem[int]{Lo: lo, Hi: lo + g.ExpFloat64()*10, Weight: float64(i + 1)}
	}
	ix, err := NewIntervalIndex(items, WithReduction(WorstCase), WithUpdates(), WithSeed(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	ix.ResetStats()
	w := float64(len(items))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := g.Float64() * 100
		w++
		if err := ix.Insert(IntervalItem[int]{Lo: lo, Hi: lo + g.ExpFloat64()*10, Weight: w}); err != nil {
			b.Fatal(err)
		}
	}
	reportIOs(b, ix.Stats())
}

// BenchmarkBuild measures constructing an index from 2^15 items under
// the default reduction: the black-box bulk builds on the full set and
// on Theorem 2's samples, plus the reduction's own setup. Report-only;
// no BENCH_*.json row tracks it.
func BenchmarkBuild(b *testing.B) {
	const n = 1 << 15
	intervals := genFacadeIntervals(n)
	points := genPointsN(n, 2, benchSeed)
	for _, bc := range []struct {
		name  string
		build func() error
	}{
		{"interval", func() error { _, err := NewIntervalIndex(intervals, WithSeed(benchSeed)); return err }},
		{"circular", func() error { _, err := NewCircularIndex(points, 2, WithSeed(benchSeed)); return err }},
		{"ortho", func() error { _, err := NewOrthoIndex(points, 2, WithSeed(benchSeed)); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// residentConfigs are the index configurations servebench's three
// workloads serve, built through the registry as topk-serve builds them
// (tracing and metrics on), at n items. serve-disk-sharded restores a
// snapshot onto a disk store, as its warm boot does; dir holds the
// snapshot and the block files. Only what build returns is live when
// residentBytesPerItem measures.
func residentConfigs(n int, dir string) []struct {
	name  string
	build func() (Served, error)
} {
	spec := func(name string) ProblemSpec { s, _ := ProblemByName(name); return s }
	served := []Option{WithSeed(benchSeed), WithTracing(), WithMetrics()}
	return []struct {
		name  string
		build func() (Served, error)
	}{
		{"serve-hot", func() (Served, error) { return spec("interval").Build(n, benchSeed, served...) }},
		{"serve-disk-sharded", func() (Served, error) {
			snapDir := filepath.Join(dir, "snap")
			src, err := spec("circular").BuildSharded(n, 4, benchSeed, served...)
			if err != nil {
				return nil, err
			}
			defer src.Close()
			if err := src.Snapshot(snapDir); err != nil {
				return nil, err
			}
			return spec("circular").Restore(snapDir, append(served, WithDiskStore(filepath.Join(dir, "disk")))...)
		}},
		{"ingest-overlay", func() (Served, error) {
			return spec("ortho").Build(n, benchSeed, append(served, WithUpdates(), WithMaintenancePolicy(PolicyBuffered))...)
		}},
	}
}

// residentBytesPerItem builds one index and returns the live heap it
// holds per item: HeapAlloc after a full GC, minus the same before the
// build. Garbage the build leaves behind is not counted; the peak RSS a
// server reaches is about twice this under the default GOGC.
func residentBytesPerItem(n int, build func() (Served, error)) (float64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sv, err := build()
	if err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sv)
	sv.Close()
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n), nil
}

// BenchmarkResident reports the live heap bytes per item of the three
// served configurations at n = 2^15. Report-only; TestResidentServeHot
// bounds the serve-hot figure.
func BenchmarkResident(b *testing.B) {
	const n = 1 << 15
	for _, bc := range residentConfigs(n, b.TempDir()) {
		b.Run(bc.name, func(b *testing.B) {
			var per float64
			for i := 0; i < b.N; i++ {
				var err error
				if per, err = residentBytesPerItem(n, bc.build); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(per, "live-B/item")
		})
	}
}

// TestResidentServeHot bounds the live heap per item of the serve-hot
// configuration (interval, native Theorem 2, tracing and metrics on) at
// n = 2^15. Measured 481 B/item on go1.24 linux/amd64 once each layer
// kept one weight index (586 B/item with the interval trees' per-item
// location map); the bound is that figure +15%, so a per-item map
// coming back fails here. Not parallel: it reads process-wide heap
// statistics.
func TestResidentServeHot(t *testing.T) {
	const n, bound = 1 << 15, 481 * 1.15
	per, err := residentBytesPerItem(n, residentConfigs(n, t.TempDir())[0].build)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("serve-hot: %.1f live B/item (bound %.0f)", per, bound)
	if per > bound {
		t.Fatalf("serve-hot holds %.1f live B/item, bound %.0f: has a per-item index come back?", per, bound)
	}
}
