package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"topk"
	"topk/internal/obs"
	"topk/internal/shard"
)

// Tunables of the serving discipline. The hedge delay and admission
// budget both self-derive from live percentiles once enough shard
// requests have been observed; before that, conservative defaults
// apply.
const (
	// controlWarmup is how many shard requests (hedge delay) or
	// per-query costs (admission) must be observed before the live p99
	// replaces the default.
	controlWarmup = 64
	// defaultHedgeDelay applies until the latency summary warms up.
	defaultHedgeDelay = 25 * time.Millisecond
	// hedgeDelayMin/Max clamp the p99-derived delay: below the floor a
	// healthy cluster would hedge constantly (pure waste — the answer is
	// deterministic either way), above the ceiling a hedge no longer
	// rescues the tail.
	hedgeDelayMin = time.Millisecond
	hedgeDelayMax = time.Second
	// admissionFloor mirrors topk-serve's calibrated-budget floor: tiny
	// indexes would otherwise derive budgets that abort routine queries.
	admissionFloor = 16
	// coordGrace is how long past the request deadline the coordinator
	// keeps waiting for replicas to deliver their (degraded or typed)
	// lifecycle results before declaring a shard's replica group
	// unavailable at the transport layer.
	coordGrace = 2 * time.Second
)

// Config describes one cluster: a partitioned snapshot's geometry plus
// the coordinator's request-lifecycle defaults.
type Config struct {
	// Problem is the registry name of the problem served.
	Problem string
	// Shards is the snapshot's partition count; every query fans out to
	// one replica of each shard.
	Shards int
	// Replication is R, the owners per shard. Clamped to the node count.
	Replication int
	// HedgeDelay pins the hedge delay; 0 derives it from the live p99 of
	// shard-request latency (clamped to [1ms, 1s], 25ms until warm).
	HedgeDelay time.Duration
	// Deadline is the default per-request wall-clock deadline (0 none).
	Deadline time.Duration
	// BudgetIOs is the default per-query per-shard I/O budget: 0 means
	// unbudgeted, > 0 a fixed cap, and -1 turns on admission control —
	// the budget tracks 2× the live p99 of observed per-query shard
	// cost, exactly the calibration rule topk-serve applies at boot but
	// re-derived continuously from real traffic.
	BudgetIOs int64
	// DegradeToMax arms the top-1 fallback on lifecycle aborts.
	DegradeToMax bool
}

// QueryOptions are one request's lifecycle overrides, mirroring the
// /query body: > 0 overrides the default, < 0 forces the limit off,
// 0 keeps the coordinator default. DeadlineAt, when set, is an absolute
// deadline that wins over DeadlineMS (the conformance suite uses it to
// pin already-expired deadlines deterministically).
type QueryOptions struct {
	BudgetIOs  int64
	DeadlineMS int64
	DeadlineAt time.Time
	Degrade    *bool
}

// Coordinator fans query batches out to replica groups and merges the
// per-shard answers under the same rules as a single-process sharded
// index. Safe for concurrent use.
type Coordinator struct {
	cfg    Config
	byID   map[string]Replica
	owners [][]string // shard -> replica IDs, preference order
	met    *obs.ClusterMetrics
	rr     atomic.Uint64 // rotates the preferred replica per shard request
}

// New builds a coordinator over the given replicas. Shard ownership is
// rendezvous-hashed over the replica IDs at the configured replication
// factor; every participant computing ownership from the same ID list
// agrees on it.
func New(cfg Config, replicas []Replica) (*Coordinator, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 shard, got %d", cfg.Shards)
	}
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: need at least one replica")
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	if cfg.Replication > len(replicas) {
		cfg.Replication = len(replicas)
	}
	c := &Coordinator{cfg: cfg, byID: make(map[string]Replica, len(replicas))}
	ids := make([]string, len(replicas))
	for i, r := range replicas {
		id := r.ID()
		if _, dup := c.byID[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate replica ID %q", id)
		}
		c.byID[id] = r
		ids[i] = id
	}
	c.owners = make([][]string, cfg.Shards)
	for s := range c.owners {
		c.owners[s] = shard.Owners(s, ids, cfg.Replication)
	}
	c.met = obs.NewClusterMetrics(obs.NewRegistry())
	c.met.Registry().NewGauge("topk_cluster_shards", "Shards in the served partition.").Set(int64(cfg.Shards))
	c.met.Registry().NewGauge("topk_cluster_replication", "Replication factor R.").Set(int64(cfg.Replication))
	c.met.Registry().NewGauge("topk_cluster_nodes", "Replica nodes configured.").Set(int64(len(replicas)))
	return c, nil
}

// Config returns the coordinator's configuration (replication clamped).
func (c *Coordinator) Config() Config { return c.cfg }

// Metrics returns the coordinator's metric bundle.
func (c *Coordinator) Metrics() *obs.ClusterMetrics { return c.met }

// Owners returns the replica IDs owning the given shard, preference
// order first.
func (c *Coordinator) Owners(s int) []string {
	return append([]string(nil), c.owners[s]...)
}

// hedgeDelay is the current delay before a shard request launches its
// second replica: the pinned value if configured, else the live p99 of
// shard-request latency — by construction about 1% of healthy requests
// hedge, which is the standard tail-tolerance discipline.
func (c *Coordinator) hedgeDelay() time.Duration {
	d := c.cfg.HedgeDelay
	if d <= 0 {
		d = defaultHedgeDelay
		if c.met.ShardLatency.Count() >= controlWarmup {
			d = time.Duration(c.met.ShardLatency.Quantile(0.99))
			if d < hedgeDelayMin {
				d = hedgeDelayMin
			}
			if d > hedgeDelayMax {
				d = hedgeDelayMax
			}
		}
	}
	c.met.HedgeDelayUS.Set(d.Microseconds())
	return d
}

// admissionBudget derives the per-query per-shard I/O budget when
// admission control is on (Config.BudgetIOs == -1): twice the live p99
// of observed per-query shard cost, floored like topk-serve's boot
// calibration. Until the cost summary warms up, queries run unbudgeted.
func (c *Coordinator) admissionBudget() int64 {
	if c.met.ShardIOs.Count() < controlWarmup {
		c.met.AdmissionBudget.Set(0)
		return 0
	}
	b := 2 * c.met.ShardIOs.Quantile(0.99)
	if b < admissionFloor {
		b = admissionFloor
	}
	c.met.AdmissionBudget.Set(b)
	return b
}

// resolveBudget applies a request's override to the default budget.
func (c *Coordinator) resolveBudget(opt QueryOptions) int64 {
	switch {
	case opt.BudgetIOs > 0:
		return opt.BudgetIOs
	case opt.BudgetIOs < 0:
		return 0
	case c.cfg.BudgetIOs < 0:
		return c.admissionBudget()
	default:
		return c.cfg.BudgetIOs
	}
}

// resolveDeadline applies a request's override to the default deadline,
// returning the absolute instant (zero = none).
func (c *Coordinator) resolveDeadline(opt QueryOptions) time.Time {
	if !opt.DeadlineAt.IsZero() {
		return opt.DeadlineAt
	}
	d := c.cfg.Deadline
	if opt.DeadlineMS > 0 {
		d = time.Duration(opt.DeadlineMS) * time.Millisecond
	} else if opt.DeadlineMS < 0 {
		d = 0
	}
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

// remainingMS renders an absolute deadline as the wire's relative form
// at dispatch time: 0 none, > 0 milliseconds left (sub-millisecond
// remainders round up so "almost no time" is not mistaken for "no
// deadline"), < 0 already expired.
func remainingMS(dl time.Time) int64 {
	if dl.IsZero() {
		return 0
	}
	rem := time.Until(dl)
	if rem <= 0 {
		return -1
	}
	ms := rem.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// Query answers one batch of wire-shaped queries across the cluster:
// fan out to one replica per shard (hedging per shard as needed), then
// merge per query under the single-process sharded rules — full Lemma 2
// merge when every shard is OK, exact top-1 prefix when any shard
// degraded, typed refusal when a shard aborted without the fallback,
// and OutcomeUnavailable when a shard's whole replica group failed at
// the transport layer.
func (c *Coordinator) Query(ctx context.Context, queries []json.RawMessage, k int, opt QueryOptions) ([]ShardResult, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("cluster: empty query batch")
	}
	if k < 1 {
		return nil, fmt.Errorf("cluster: need k >= 1, got %d", k)
	}
	budget := c.resolveBudget(opt)
	dl := c.resolveDeadline(opt)
	degrade := c.cfg.DegradeToMax
	if opt.Degrade != nil {
		degrade = *opt.Degrade
	}

	// The coordinator waits past the query deadline by a grace period:
	// replicas whose engines trip the deadline still owe a (degraded or
	// typed) result, and only transport silence beyond the grace makes a
	// shard unavailable. An already-expired deadline anchors the grace at
	// now — the replicas' deterministic aborts still deserve the wire
	// round-trip.
	wctx := ctx
	if !dl.IsZero() {
		base := dl
		if now := time.Now(); base.Before(now) {
			base = now
		}
		var cancel context.CancelFunc
		wctx, cancel = context.WithDeadline(ctx, base.Add(coordGrace))
		defer cancel()
	}

	per := make([]ShardResponse, c.cfg.Shards)
	errs := make([]error, c.cfg.Shards)
	var wg sync.WaitGroup
	for s := 0; s < c.cfg.Shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			req := ShardRequest{
				Shard: s, Queries: queries, K: k,
				BudgetIOs: budget, DeadlineMS: remainingMS(dl), Degrade: degrade,
			}
			per[s], errs[s] = c.queryShard(wctx, req)
		}(s)
	}
	wg.Wait()
	return c.merge(queries, k, per, errs), nil
}

// queryShard runs one shard's request against its replica group with
// hedging: the preferred replica (rotated per request) goes first; if
// it has not answered within the hedge delay, the next owner races it
// and the first success wins, the loser cancelled through ctx. A
// transport error fails over to the next owner immediately. Lifecycle
// aborts are not errors — they ride inside the response.
func (c *Coordinator) queryShard(ctx context.Context, req ShardRequest) (ShardResponse, error) {
	owners := c.owners[req.Shard]
	start := int(c.rr.Add(1)-1) % len(owners)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type attempt struct {
		resp ShardResponse
		err  error
		idx  int
	}
	ch := make(chan attempt, len(owners))
	launched := 0
	launch := func() {
		idx := launched
		id := owners[(start+idx)%len(owners)]
		rep := c.byID[id]
		launched++
		c.met.ReplicaRequest(id)
		go func() {
			t0 := time.Now()
			resp, err := rep.QueryShard(cctx, req)
			if err == nil {
				if len(resp.Results) != len(req.Queries) {
					err = fmt.Errorf("node %s: %d results for %d queries", id, len(resp.Results), len(req.Queries))
				} else {
					c.met.ShardLatency.Observe(time.Since(t0).Nanoseconds())
					for _, r := range resp.Results {
						c.met.ShardIOs.Observe(r.IOs)
					}
				}
			}
			if err != nil && cctx.Err() == nil {
				c.met.ReplicaError(id)
			}
			ch <- attempt{resp, err, idx}
		}()
	}
	launch()

	hedge := time.NewTimer(c.hedgeDelay())
	defer hedge.Stop()
	pending := 1
	var lastErr error
	for {
		select {
		case a := <-ch:
			pending--
			if a.err == nil {
				if a.idx > 0 {
					c.met.HedgeWins.Inc()
				}
				return a.resp, nil
			}
			lastErr = a.err
			if launched < len(owners) {
				// Immediate failover: a replica that answered with a
				// transport error costs no hedge delay.
				launch()
				pending++
			} else if pending == 0 {
				return ShardResponse{}, fmt.Errorf("shard %d: %w: %v", req.Shard, topk.ErrReplicaUnavailable, lastErr)
			}
		case <-hedge.C:
			if launched < len(owners) {
				c.met.Hedged.Inc()
				launch()
				pending++
			}
		case <-cctx.Done():
			if lastErr == nil {
				lastErr = cctx.Err()
			}
			return ShardResponse{}, fmt.Errorf("shard %d: %w: %v", req.Shard, topk.ErrReplicaUnavailable, lastErr)
		}
	}
}

// merge combines per-shard responses into per-query results under the
// same rules as the root package's single-process sharded merge
// (mergeShardResults), with one cluster-only addition: a shard whose
// whole replica group failed makes its queries OutcomeUnavailable — a
// typed refusal, never a silently partial answer.
func (c *Coordinator) merge(queries []json.RawMessage, k int, per []ShardResponse, errs []error) []ShardResult {
	var lost error
	for _, err := range errs {
		if err != nil {
			lost = err
			break
		}
	}
	weightOf := func(it WireItem) float64 { return it.Weight }
	out := make([]ShardResult, len(queries))
	lists := make([][]WireItem, 0, len(per))
	for qi := range queries {
		r := &out[qi]
		r.Items = []WireItem{}
		if lost != nil {
			c.met.Unavailable.Inc()
			r.Outcome = topk.OutcomeUnavailable.String()
			r.Error = lost.Error()
			continue
		}
		worst := topk.OutcomeOK
		lists = lists[:0]
		for si := range per {
			sr := per[si].Results[qi]
			lists = append(lists, sr.Items)
			r.Reads += sr.Reads
			r.Writes += sr.Writes
			r.Hits += sr.Hits
			r.IOs += sr.IOs
			// The error rides with the outcome that wins, so a client
			// reading Error sees why the reported Outcome happened.
			if o, ok := topk.ParseOutcome(sr.Outcome); ok && o > worst {
				worst, r.Error = o, sr.Error
			}
		}
		items := shard.MergeDesc(lists, k, weightOf)
		switch {
		case worst == topk.OutcomeDegraded:
			// Every aborted shard fell back to its exact local top-1, so
			// the merged head is the exact global maximum.
			if len(items) > 1 {
				items = items[:1]
			}
			c.met.Degraded.Inc()
		case worst != topk.OutcomeOK:
			items = nil
		}
		r.Items = append(r.Items, items...)
		r.Outcome = worst.String()
	}
	return out
}

// Ready reports whether every shard has at least one owner currently
// serving it, by asking each replica for its Info. It is the
// coordinator's bootstrap gate: nodes fetch shards asynchronously, and
// a cluster is queryable once coverage is complete.
func (c *Coordinator) Ready(ctx context.Context) error {
	serving := make(map[string]map[int]bool, len(c.byID))
	var firstErr error
	for id, rep := range c.byID {
		info, err := rep.Info(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if c.cfg.Problem != "" && info.Problem != c.cfg.Problem {
			return fmt.Errorf("cluster: node %s serves problem %q, cluster is %q", id, info.Problem, c.cfg.Problem)
		}
		set := make(map[int]bool, len(info.Shards))
		for _, s := range info.Shards {
			set[s] = true
		}
		serving[id] = set
	}
	for s := 0; s < c.cfg.Shards; s++ {
		covered := false
		for _, id := range c.owners[s] {
			if serving[id][s] {
				covered = true
				break
			}
		}
		if !covered {
			if firstErr != nil {
				return fmt.Errorf("cluster: shard %d has no live owner (owners %v): %w", s, c.owners[s], firstErr)
			}
			return fmt.Errorf("cluster: shard %d has no live owner yet (owners %v)", s, c.owners[s])
		}
	}
	return nil
}
