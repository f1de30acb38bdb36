package topk

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"topk/internal/interval"
	"topk/internal/shard"
	"topk/internal/snap"
	"topk/internal/wrand"
)

// shardedInterval is the sharded index over the interval problem, the
// instance the sharding tests drive directly.
type shardedInterval = sharded[float64, interval.Interval, IntervalItem[int]]

func newShardedInterval(items []IntervalItem[int], shards int, opts ...Option) (*shardedInterval, error) {
	return newSharded(intervalProblem[int](), items, shards, opts)
}

func shardIntervals(n int, seed uint64) []IntervalItem[int] {
	g := wrand.New(seed)
	ws := g.UniqueFloats(n, 1e6)
	items := make([]IntervalItem[int], n)
	for i := range items {
		lo := g.Float64() * 100
		items[i] = IntervalItem[int]{Lo: lo, Hi: lo + g.ExpFloat64()*5, Weight: ws[i], Data: i}
	}
	return items
}

func TestShardedConstructorErrors(t *testing.T) {
	items := shardIntervals(10, 1)
	if _, err := newShardedInterval(items, 0); err == nil {
		t.Fatal("accepted 0 shards")
	}
	dup := append(append([]IntervalItem[int]{}, items...), items[3])
	if _, err := newShardedInterval(dup, 4); err == nil {
		t.Fatal("accepted a cross-shard duplicate weight")
	}
	// Round-robin deals the two copies to different shards, where only
	// the sharded build gate can see them.
	want := fmt.Sprintf("topk: duplicate weight %v", items[3].Weight)
	if _, err := newShardedInterval(dup, 4, WithShardPolicy(ShardRoundRobin)); err == nil || err.Error() != want {
		t.Fatalf("round-robin cross-shard duplicate: err = %v, want %q", err, want)
	}
	bad := append(append([]IntervalItem[int]{}, items...), IntervalItem[int]{Lo: 2, Hi: 1, Weight: 0.5})
	if _, err := newShardedInterval(bad, 4); err == nil {
		t.Fatal("accepted a malformed interval")
	}
}

// TestShardedPolicies pins down item placement: ShardByWeight puts every
// item where shard.Hash says, and ShardRoundRobin keeps shard sizes
// within one item of each other — at build time and across inserts.
func TestShardedPolicies(t *testing.T) {
	const n, shards = 100, 4
	items := shardIntervals(n, 2)

	byWeight, err := newShardedInterval(items, shards)
	if err != nil {
		t.Fatal(err)
	}
	if byWeight.opts.policy != ShardByWeight {
		t.Fatalf("default policy = %v", byWeight.opts.policy)
	}
	want := make([]int, shards)
	for _, it := range items {
		want[shard.Hash(it.Weight, shards)]++
	}
	for i, got := range byWeight.ShardLens() {
		if got != want[i] {
			t.Fatalf("ShardByWeight shard %d holds %d items, Hash says %d", i, got, want[i])
		}
	}

	rr, err := newShardedInterval(items, shards, WithShardPolicy(ShardRoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	if rr.opts.policy != ShardRoundRobin {
		t.Fatalf("policy = %v", rr.opts.policy)
	}
	check := func(stage string) {
		lens := rr.ShardLens()
		lo, hi := lens[0], lens[0]
		for _, l := range lens {
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		if hi-lo > 1 {
			t.Fatalf("%s: round-robin shards unbalanced: %v", stage, lens)
		}
	}
	check("after build")
	g := wrand.New(77)
	for i := 0; i < 13; i++ {
		lo := g.Float64() * 100
		if err := rr.Insert(IntervalItem[int]{Lo: lo, Hi: lo + 1, Weight: 2e6 + float64(i)}); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	check("after inserts")
	if rr.Len() != n+13 {
		t.Fatalf("Len() = %d", rr.Len())
	}
}

// TestShardedDynamicMatchesSingle drives the same op sequence through a
// sharded index and an unsharded one and requires identical answers —
// the update-routing analogue of the conformance query sweep.
func TestShardedDynamicMatchesSingle(t *testing.T) {
	for _, policy := range []ShardPolicy{ShardByWeight, ShardRoundRobin} {
		t.Run(policy.String(), func(t *testing.T) {
			items := shardIntervals(60, 3)
			sharded, err := newShardedInterval(items, 3, WithShardPolicy(policy))
			if err != nil {
				t.Fatal(err)
			}
			single, err := NewIntervalIndex(items)
			if err != nil {
				t.Fatal(err)
			}
			g := wrand.New(9)
			for step := 0; step < 120; step++ {
				switch g.IntN(3) {
				case 0:
					lo := g.Float64() * 100
					it := IntervalItem[int]{Lo: lo, Hi: lo + g.Float64()*10, Weight: 3e6 + g.Float64()*1e6}
					errA, errB := sharded.Insert(it), single.Insert(it)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("step %d: Insert diverged: %v vs %v", step, errA, errB)
					}
				case 1:
					all := single.Items()
					if len(all) == 0 {
						continue
					}
					w := all[g.IntN(len(all))].Weight
					okA, errA := sharded.Delete(w)
					okB, errB := single.Delete(w)
					if okA != okB || (errA == nil) != (errB == nil) {
						t.Fatalf("step %d: Delete(%v) diverged: (%v,%v) vs (%v,%v)", step, w, okA, errA, okB, errB)
					}
				default:
					x := g.Float64() * 100
					a := sharded.TopK(x, 7)
					b := single.TopK(x, 7)
					if len(a) != len(b) {
						t.Fatalf("step %d: TopK lengths %d vs %d", step, len(a), len(b))
					}
					for i := range a {
						if a[i].Weight != b[i].Weight {
							t.Fatalf("step %d item %d: %v vs %v", step, i, a[i].Weight, b[i].Weight)
						}
					}
				}
				if sharded.Len() != single.Len() {
					t.Fatalf("step %d: Len %d vs %d", step, sharded.Len(), single.Len())
				}
			}
		})
	}
}

// restoreShardedInterval restores a partitioned interval snapshot
// directory as the sharded type itself, so tests can drive its update
// paths directly.
func restoreShardedInterval(t *testing.T, dir string) *shardedInterval {
	t.Helper()
	mf, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := restoreSharded(func(snap.Header) (problem[float64, interval.Interval, IntervalItem[int]], error) {
		return intervalProblem[int](), nil
	}, dir, mf, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedRestoreRejectsWeightInTwoShards: a partitioned snapshot
// whose shards both hold one live weight does not restore, and the
// error names the weight and both shards.
func TestShardedRestoreRejectsWeightInTwoShards(t *testing.T) {
	items := shardIntervals(40, 11)
	p := intervalProblem[int]()
	e0, err := newEngine(p, items[:20], nil)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1 repeats items[7], which shard 0 holds.
	e1, err := newEngine(p, append(append([]IntervalItem[int](nil), items[20:]...), items[7]), nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bad := &shardedInterval{p: p, opts: e0.opts, shards: []*engine[float64, interval.Interval, IntervalItem[int]]{e0, e1}}
	if err := bad.snapDir(dir); err != nil {
		t.Fatal(err)
	}
	spec, _ := ProblemByName("interval")
	_, err = spec.Restore(dir)
	want := fmt.Sprintf("topk: weight %v is live in shards 0 and 1", items[7].Weight)
	if err == nil || err.Error() != want {
		t.Fatalf("restore err = %v, want %q", err, want)
	}
}

// TestShardedRoundRobinAfterRestore: under ShardRoundRobin no weight
// maps to a shard, so after a restore the engines' own weight maps must
// route every update — a duplicate Insert is rejected, new items follow
// the restored cursor, and Delete/DeleteBatch remove exactly the named
// items from the shards that hold them.
func TestShardedRoundRobinAfterRestore(t *testing.T) {
	const shards = 3
	items := shardIntervals(50, 12)
	src, err := newShardedInterval(items, shards, WithShardPolicy(ShardRoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := src.snapDir(dir); err != nil {
		t.Fatal(err)
	}
	s := restoreShardedInterval(t, dir)
	if s.opts.policy != ShardRoundRobin || s.rr != src.rr {
		t.Fatalf("restored policy %v cursor %d, want ShardRoundRobin cursor %d", s.opts.policy, s.rr, src.rr)
	}
	holder := func(w float64) int {
		for sh, e := range src.shards {
			if _, ok := e.data[w]; ok {
				return sh
			}
		}
		return -1
	}
	live := make(map[float64]bool, len(items))
	for _, it := range items {
		live[it.Weight] = true
	}
	check := func(stage string) {
		t.Helper()
		got := s.Items()
		if len(got) != len(live) || s.Len() != len(live) {
			t.Fatalf("%s: %d items (Len %d), want %d", stage, len(got), s.Len(), len(live))
		}
		for _, it := range got {
			if !live[it.Weight] {
				t.Fatalf("%s: weight %v is live, want it gone", stage, it.Weight)
			}
		}
	}

	lens := s.ShardLens()
	dup := items[4]
	dup.Lo, dup.Hi = 1, 2
	err = s.Insert(dup)
	if want := fmt.Sprintf("topk: duplicate weight %v", dup.Weight); err == nil || err.Error() != want {
		t.Fatalf("duplicate Insert err = %v, want %q", err, want)
	}
	if err := s.InsertBatch([]IntervalItem[int]{{Lo: 0, Hi: 1, Weight: 5e6}, dup}); err == nil || !strings.Contains(err.Error(), "duplicate weight") {
		t.Fatalf("InsertBatch with a duplicate: err = %v", err)
	}
	if !reflect.DeepEqual(s.ShardLens(), lens) || s.rr != src.rr {
		t.Fatalf("rejected inserts moved the index: lens %v -> %v, cursor %d -> %d", lens, s.ShardLens(), src.rr, s.rr)
	}
	fresh := IntervalItem[int]{Lo: 10, Hi: 20, Weight: 7e6}
	if err := s.Insert(fresh); err != nil {
		t.Fatal(err)
	}
	live[fresh.Weight] = true
	lens[src.rr]++
	if !reflect.DeepEqual(s.ShardLens(), lens) {
		t.Fatalf("fresh insert: lens %v, want %v (cursor %d)", s.ShardLens(), lens, src.rr)
	}
	check("after inserts")

	victim := items[9]
	if ok, err := s.Delete(victim.Weight); !ok || err != nil {
		t.Fatalf("Delete(%v) = %v, %v", victim.Weight, ok, err)
	}
	delete(live, victim.Weight)
	lens[holder(victim.Weight)]--
	if ok, _ := s.Delete(victim.Weight); ok {
		t.Fatal("deleted the same weight twice")
	}
	if !reflect.DeepEqual(s.ShardLens(), lens) {
		t.Fatalf("Delete: lens %v, want %v", s.ShardLens(), lens)
	}
	check("after Delete")

	batch := []float64{items[0].Weight, items[1].Weight, items[2].Weight, -1, items[0].Weight, fresh.Weight}
	n, err := s.DeleteBatch(batch)
	if err != nil || n != 4 {
		t.Fatalf("DeleteBatch = %d, %v; want 4 deleted", n, err)
	}
	for _, w := range batch[:3] {
		delete(live, w)
		lens[holder(w)]--
	}
	delete(live, fresh.Weight)
	lens[src.rr]--
	if !reflect.DeepEqual(s.ShardLens(), lens) {
		t.Fatalf("DeleteBatch: lens %v, want %v", s.ShardLens(), lens)
	}
	check("after DeleteBatch")
}

// TestShardedMetricsSharedRegistry checks the observability aggregation
// contract: all shards expose through one registry, every per-shard
// series carries a shard label, each metric family renders exactly one
// HELP/TYPE header, and the topk_shards gauge reports the width.
func TestShardedMetricsSharedRegistry(t *testing.T) {
	ix, err := newShardedInterval(shardIntervals(80, 4), 3, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	ix.TopK(50, 5)
	var b strings.Builder
	if err := ix.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, `topk_shards{index="interval"} 3`) {
		t.Fatalf("missing topk_shards gauge:\n%s", text)
	}
	for sh := 0; sh < 3; sh++ {
		series := fmt.Sprintf(`topk_queries_total{index="interval",shard="%d"}`, sh)
		if !strings.Contains(text, series) {
			t.Fatalf("missing per-shard series %s:\n%s", series, text)
		}
	}
	for _, family := range []string{"topk_queries_total", "topk_query_ios", "topk_index_items"} {
		if got := strings.Count(text, "# HELP "+family+" "); got != 1 {
			t.Fatalf("%d HELP lines for %s, want 1", got, family)
		}
		if got := strings.Count(text, "# TYPE "+family+" "); got != 1 {
			t.Fatalf("%d TYPE lines for %s, want 1", got, family)
		}
	}

	plain, err := newShardedInterval(shardIntervals(10, 5), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.WriteMetrics(&b); err == nil {
		t.Fatal("WriteMetrics succeeded without WithMetrics")
	}
}

// TestShardedStatsAggregate checks that index-wide Stats are the
// element-wise sum of the per-shard counters and reset together.
func TestShardedStatsAggregate(t *testing.T) {
	ix, err := newShardedInterval(shardIntervals(120, 6), 4, WithReduction(WorstCase))
	if err != nil {
		t.Fatal(err)
	}
	ix.ResetStats()
	ix.TopK(42, 9)
	sum := Stats{Reduction: WorstCase}
	for _, e := range ix.shards {
		st := e.Stats()
		sum.Reads += st.Reads
		sum.Writes += st.Writes
		sum.Hits += st.Hits
		sum.Blocks += st.Blocks
	}
	if got := ix.Stats(); got != sum {
		t.Fatalf("Stats() = %+v, shard sum %+v", got, sum)
	}
	if ix.Stats().IOs() == 0 {
		t.Fatal("query charged no I/Os")
	}
	ix.ResetStats()
	if st := ix.Stats(); st.Reads != 0 || st.Writes != 0 || st.Hits != 0 {
		t.Fatalf("counters after ResetStats: %+v", st)
	}
}

// TestShardedReportAboveEarlyStop checks that a visitor returning false
// stops the scan across shard boundaries.
func TestShardedReportAboveEarlyStop(t *testing.T) {
	ix, err := newShardedInterval(shardIntervals(50, 8), 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	ix.ReportAbove(50, -1, func(IntervalItem[int]) bool {
		seen++
		return seen < 3
	})
	if seen > 3 {
		t.Fatalf("visited %d items after stopping at 3", seen)
	}
}

// TestMergeShardResultsErrFollowsOutcome drives the per-query shard
// merge over synthetic per-shard results: the merged Outcome is the
// worst per-shard one, Err is the error of the first shard that ended
// with it (so errors.Is on Err agrees with Outcome), and Items follow
// the merge rules — full merge, top-1 prefix, or refusal.
func TestMergeShardResultsErrFollowsOutcome(t *testing.T) {
	weight := func(w float64) float64 { return w }
	budget := fmt.Errorf("%w (charged 9 of 8 I/Os)", ErrBudgetExceeded)
	deadline := fmt.Errorf("%w (aborted after 3 I/Os)", ErrDeadlineExceeded)
	ok := func(ws ...float64) BatchResult[float64] { return BatchResult[float64]{Items: ws} }
	aborted := func(o Outcome, err error, ws ...float64) BatchResult[float64] {
		return BatchResult[float64]{Items: ws, Outcome: o, Err: err}
	}
	for _, tc := range []struct {
		name    string
		shards  []BatchResult[float64]
		outcome Outcome
		err     error // the sentinel Err must wrap; nil means Err is nil
		items   []float64
	}{
		{"all ok", []BatchResult[float64]{ok(9, 4), ok(7, 5)}, OutcomeOK, nil, []float64{9, 7, 5}},
		{"budget then deadline", []BatchResult[float64]{
			aborted(OutcomeBudgetExceeded, budget), aborted(OutcomeDeadlineExceeded, deadline),
		}, OutcomeDeadlineExceeded, ErrDeadlineExceeded, nil},
		{"degraded by deadline then budget", []BatchResult[float64]{
			aborted(OutcomeDegraded, deadline, 8), ok(9, 6), aborted(OutcomeBudgetExceeded, budget),
		}, OutcomeBudgetExceeded, ErrBudgetExceeded, nil},
		{"ok then degraded", []BatchResult[float64]{
			ok(3, 2), aborted(OutcomeDegraded, budget, 8), aborted(OutcomeDegraded, deadline, 7),
		}, OutcomeDegraded, ErrBudgetExceeded, []float64{8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := mergeShardResults(tc.shards, 3, weight, make([][]float64, len(tc.shards)))
			if r.Outcome != tc.outcome {
				t.Fatalf("Outcome = %v, want %v", r.Outcome, tc.outcome)
			}
			if tc.err == nil && r.Err != nil || tc.err != nil && !errors.Is(r.Err, tc.err) {
				t.Fatalf("Err = %v, want one wrapping %v", r.Err, tc.err)
			}
			if !reflect.DeepEqual(r.Items, tc.items) {
				t.Fatalf("Items = %v, want %v", r.Items, tc.items)
			}
		})
	}
}
