package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"topk"
)

// served runs the HTTP half of a run: it prepares the in-process
// reference index, boots topk-serve, warms it up, drives the measured
// window, and derives the served metrics from the traffic and from
// /metrics scraped around the window.
func (r *runner) served(ctx context.Context) error {
	w := r.cfg.w
	spec, ok := topk.ProblemByName(w.problem)
	if !ok {
		return fmt.Errorf("topk has no problem %q", w.problem)
	}
	r.na = make(map[string]bool)
	r.notes = make(map[string]string)

	// The reference index holds the same items as the server: a full
	// scan answers the read workloads' pool, and on ingest-overlay it is
	// the mirror that replays the acknowledged writes.
	refOpts := []topk.Option{topk.WithSeed(datasetSeed), topk.WithReduction(topk.FullScan)}
	if w.ingest {
		refOpts = []topk.Option{topk.WithSeed(datasetSeed), topk.WithUpdates(), topk.WithMaintenancePolicy(topk.PolicyBuffered)}
	}
	ref, err := buildIndex(spec, r.cfg.n, w.shards, datasetSeed, refOpts...)
	if err != nil {
		return fmt.Errorf("building the reference index: %w", err)
	}
	defer ref.Close()
	pool, err := r.newPool(spec, ref)
	if err != nil {
		return err
	}
	r.pool = pool

	// A warm boot restores the snapshot that a cold boot writes into an
	// empty -snapshot-dir; prepare it once, untimed.
	snapSrc := ""
	if w.warm {
		c, _, err := r.boot(ctx, "prep", "", 1)
		c.stop()
		if err != nil {
			return fmt.Errorf("preparing the warm-start snapshot: %w", err)
		}
		snapSrc = filepath.Join(r.dir, "prep", "snap")
	}
	nBoots := setupBoots
	if r.cfg.trace {
		nBoots = 1
	}
	conns := w.readers // the writer takes the second connection
	if w.ingest {
		conns++
	}
	var (
		c          *child
		cpus, wall []float64
	)
	defer func() { c.stop() }()
	for i := 0; i < nBoots; i++ {
		c.stop()
		if err := os.RemoveAll(filepath.Join(r.dir, fmt.Sprintf("boot%d", i-1))); err != nil {
			return err
		}
		sp := r.tr.start("serve.boot", 0, 0)
		var bt bootTime
		c, bt, err = r.boot(ctx, fmt.Sprintf("boot%d", i), snapSrc, conns)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		cpus, wall = append(cpus, bt.cpu), append(wall, bt.wall)
	}
	r.notes["setup boots"] = fmt.Sprintf("CPU %.4g s, wall %.4g s, in boot order", cpus, wall)
	r.vals["setup_s"] = median(cpus)
	r.vals["serve.setup_wall_s"] = median(wall)

	// Warm-up: let the server's heap and the page cache settle before
	// the window opens. Its requests are checked but not timed.
	var next atomic.Int64
	warm := time.Duration(min(1, r.cfg.seconds/4) * float64(time.Second))
	warmEnd := time.Now().Add(warm)
	r.countReads(readers(ctx, c, nil, pool, w.readers, &next, warmEnd, 0, warmEnd))

	before, err := r.scrape(c)
	if err != nil {
		return err
	}
	tot0, steal0, err0 := cpuTicks()
	cpu0, err1 := c.cpuSeconds()
	untraced, traced, ing := r.window(ctx, c, spec, pool, &next)
	tot1, steal1, err2 := cpuTicks()
	cpu1, err3 := c.cpuSeconds()
	if err := errors.Join(err0, err1, err2, err3); err != nil {
		return fmt.Errorf("reading CPU times: %w", err)
	}
	r.vals["serve.cpu_ms_per_query"] = 1e3 * (cpu1 - cpu0) / float64(untraced.queries+traced.queries)
	r.notes["cpu steal in window"] = fmt.Sprintf("%.1f%%", 100*ratio(float64(steal1-steal0), float64(tot1-tot0)))
	if w.ingest {
		r.checkpoint(c)
	}
	after, err := r.scrape(c)
	if err != nil {
		return err
	}
	if w.ingest {
		if err := r.checkMirror(c, ref, pool, ing); err != nil {
			return err
		}
	}
	if r.vals["peak_rss_mb"], err = c.peakRSSMB(); err != nil {
		return err
	}
	if !c.alive() {
		r.problem("topk-serve exited during the run")
	}
	r.readMetrics(untraced, traced, ing, after.sub(before), after)
	return nil
}

// buildIndex builds the problem's index over the seeded n-item
// workload, partitioned when shards > 1, exactly as topk-serve does.
func buildIndex(spec topk.ProblemSpec, n, shards int, seed uint64, opts ...topk.Option) (topk.Served, error) {
	if shards > 1 {
		return spec.BuildSharded(n, shards, seed, opts...)
	}
	return spec.Build(n, seed, opts...)
}

// boot starts topk-serve for the workload with fresh -disk-dir and
// -snapshot-dir directories under a new directory name in the run's
// directory. A non-empty snapSrc is copied into the snapshot directory
// first, so the boot restores it; otherwise the boot builds cold.
func (r *runner) boot(ctx context.Context, name, snapSrc string, conns int) (*child, bootTime, error) {
	w := r.cfg.w
	dir := filepath.Join(r.dir, name)
	args := []string{"-problem", w.problem, "-n", strconv.Itoa(r.cfg.n), "-shards", strconv.Itoa(w.shards),
		"-seed", strconv.FormatUint(datasetSeed, 10)}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, bootTime{}, err
	}
	if w.disk {
		if err := os.Mkdir(filepath.Join(dir, "disk"), 0o755); err != nil {
			return nil, bootTime{}, err
		}
		args = append(args, "-disk-dir", filepath.Join(dir, "disk"))
	}
	if snapSrc != "" {
		if err := copyDir(snapSrc, filepath.Join(dir, "snap")); err != nil {
			return nil, bootTime{}, err
		}
	}
	if w.warm || w.ingest {
		args = append(args, "-snapshot-dir", filepath.Join(dir, "snap"))
	}
	if w.ingest {
		args = append(args, "-updates", "-maintenance", "buffered")
	}
	return startChild(ctx, r.cfg.server, args, filepath.Join(dir, "serve.log"), conns)
}

// serverOptions are the library options topk-serve builds with for the
// workload (cmd/topk-serve buildServer), so the in-process index of the
// traced run matches the served one.
func serverOptions(w workload, seed uint64, diskDir string) []topk.Option {
	opts := []topk.Option{topk.WithSeed(seed), topk.WithTracing(), topk.WithMetrics()}
	if w.ingest {
		opts = append(opts, topk.WithUpdates(), topk.WithMaintenancePolicy(topk.PolicyBuffered))
	}
	// topk-serve's defaults: -slow-ios 500, -slow-keep 64.
	opts = append(opts, topk.WithSlowQueryLog(discard{}, 500), topk.WithSlowLogKeep(64))
	if diskDir != "" {
		opts = append(opts, topk.WithDiskStore(diskDir))
	}
	return opts
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// window drives the measured window. An untraced run reads for
// -seconds. A traced run reads for -seconds/2 untraced, -seconds/2
// traced and -seconds/2 untraced again: its untraced halves hold as
// many requests as an untraced run, the tracing overhead is measured on
// one server, and a steady drift over the window cancels out of it.
// The last untraced part runs on, for at most its own length again,
// until the untraced parts hold minRequests requests. On ingest-overlay
// the writer runs on its schedule across the planned window.
func (r *runner) window(ctx context.Context, c *child, spec topk.ProblemSpec, pool *queryPool, next *atomic.Int64) (untraced, traced *loadStats, ing *ingestStats) {
	w := r.cfg.w
	phases := []bool{false} // traced or not, in order
	slice := time.Duration(r.cfg.seconds * float64(time.Second))
	if r.cfg.trace {
		phases, slice = []bool{false, true, false}, slice/2
	}
	t0 := time.Now()
	total := slice * time.Duration(len(phases))
	done := make(chan struct{})
	if w.ingest {
		go func() {
			defer close(done)
			ing = writer(ctx, c, r.tr, spec, r.cfg.seed, t0, t0.Add(total))
		}()
	} else {
		close(done)
	}
	untraced, traced = &loadStats{}, &loadStats{}
	for i, tracedPhase := range phases {
		until := t0.Add(slice * time.Duration(i+1))
		if tracedPhase {
			part := readers(ctx, c, r.tr, pool, w.readers, next, until, 0, until)
			traced.merge(part)
			traced.elapsed += part.elapsed
		} else {
			var atLeast int64
			if i == len(phases)-1 {
				atLeast = int64(r.cfg.minRequests) - untraced.requests
			}
			part := readers(ctx, c, nil, pool, w.readers, next, until, atLeast, until.Add(slice))
			untraced.merge(part)
			untraced.elapsed += part.elapsed
		}
	}
	<-done
	r.countReads(untraced)
	r.countReads(traced)
	if ing != nil {
		r.attempted += ing.attempted
		r.failed += ing.failed
		r.httpErrors += ing.failed
	}
	return untraced, traced, ing
}

func (r *runner) countReads(s *loadStats) {
	r.attempted += s.requests
	r.failed += s.failed
	r.wrong += s.wrong
	r.httpErrors += s.httpErrs
	r.aborted += s.abort
}

// scrape reads /metrics under a serve.metrics span.
func (r *runner) scrape(c *child) (promSample, error) {
	sp := r.tr.start("serve.metrics", 0, 0)
	m, err := c.metrics()
	r.tr.end(sp)
	r.attempted++
	if err != nil {
		r.failed++
		r.httpErrors++
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return m, nil
}

// checkpoint times the final POST /snapshot.
func (r *runner) checkpoint(c *child) {
	sp := r.tr.start("serve.snapshot", 0, 0)
	code, body, err := c.post("/snapshot", "application/json", nil)
	d := r.tr.end(sp)
	r.attempted++
	if err != nil || code != 200 {
		r.failed++
		r.httpErrors++
		r.problem("POST /snapshot: status %d, err %v: %s", code, err, body)
		return
	}
	r.vals["checkpoint_s"] = d.Seconds()
}

// checkMirror replays the acknowledged batches on the in-process
// mirror, then checks a sample of pool queries against the mirror's
// full-scan oracle.
func (r *runner) checkMirror(c *child, mirror topk.Served, pool *queryPool, ing *ingestStats) error {
	spec, _ := topk.ProblemByName(r.cfg.w.problem)
	for _, i := range ing.acked {
		if _, _, _, err := applyBatch(mirror, ingestBatch(spec, r.cfg.seed, i), nil, open{}); err != nil {
			return fmt.Errorf("mirror replaying batch %d: %w", i, err)
		}
	}
	want, err := oracleTopK(mirror, pool.wire[:oracleSample])
	if err != nil {
		return err
	}
	s := &loadStats{}
	const per = 8
	for i := 0; i < oracleSample; i += per {
		ask(c, nil, queryBody(pool.wire[i:i+per]), per, want[i:i+per], s)
	}
	r.countReads(s)
	return nil
}

// readMetrics turns the window's traffic and the /metrics delta d (and
// the final scrape for gauges) into metric values.
func (r *runner) readMetrics(u, t *loadStats, ing *ingestStats, d, final promSample) {
	w, v := r.cfg.w, r.vals
	secs := u.elapsed.Seconds()
	v["query_qps"] = ratio(float64(u.okQueries), secs)
	v["query_p50_ms"] = percentile(u.lat, 0.5).Value
	p99 := percentile(u.lat, 0.99)
	v["query_p99_ms"] = p99.Value
	v["bench.query_requests"] = float64(p99.N)
	r.notes["query latency samples"] = fmt.Sprintf("%d requests, %d beyond p99", p99.N, p99.Beyond)
	if p99.N < r.cfg.minRequests {
		r.problem("query_p99_ms rests on %d requests, fewer than %d", p99.N, r.cfg.minRequests)
	}
	v["ios_per_query"] = ratio(float64(u.ios+t.ios), float64(u.queries+t.queries))

	all := &loadStats{}
	all.merge(u)
	all.merge(t)
	queries := float64(all.queries)
	v["serve.http_p50_us"] = percentile(u.httpUS, 0.5).Value
	v["serve.query_elapsed_p50_us"] = percentile(u.srv, 0.5).Value * 1e3
	if r.cfg.trace && t.elapsed > 0 {
		v["bench.trace_overhead_pct"] = (ratio(float64(u.okQueries)/secs, float64(t.okQueries)/t.elapsed.Seconds()) - 1) * 100
	}

	ok, fail := d["topk_phase_ios_count{phase=t2.round.ok}"], d["topk_phase_ios_count{phase=t2.round.fail}"]
	direct, empty := d["topk_phase_ios_count{phase=t2.round.direct}"], d["topk_phase_ios_count{phase=t2.round.empty}"]
	rounds := ok + fail + direct + empty
	v["core.rounds_per_query"] = ratio(rounds, queries)
	v["core.round_success_ratio"] = ratio(ok+direct, rounds)
	v["core.failed_round_ios_share"] = ratio(d["topk_phase_ios_sum{phase=t2.round.fail}"], d["topk_query_ios_sum"])
	v["em.hit_ratio"] = ratio(d["topk_cache_hits_total"], d["topk_cache_hits_total"]+d["topk_cache_misses_total"])
	v["em.preads_per_query"] = ratio(d["topk_store_reads_total"], queries)
	v["em.read_bytes_per_query"] = ratio(d["topk_store_read_bytes_total"], queries)
	v["shard.read_imbalance"] = 1
	if w.shards > 1 {
		var most, sum float64
		for s := 0; s < w.shards; s++ {
			m := d[fmt.Sprintf("topk_cache_misses_total{shard=%d}", s)]
			most, sum = max(most, m), sum+m
		}
		v["shard.read_imbalance"] = ratio(most, sum/float64(w.shards))
	}
	v["obs.gc_pause_ms_per_s"] = ratio(d["topk_gc_pause_seconds_total"]*1e3, secs+t.elapsed.Seconds())
	v["dynamic.rebuilds"] = d["topk_rebuilds_total"]
	v["dynamic.partial_rebuilds"] = d["topk_partial_rebuilds_total"]
	v["dynamic.overlay_levels"] = final["topk_overlay_levels"]
	if ing != nil {
		v["dynamic.update_ios_per_item"] = ratio(d["topk_update_ios_sum"], float64(ing.items))
		v["ingest_p50_ms"] = percentile(ing.due, 0.5).Value
		ip99 := percentile(ing.due, 0.99)
		v["ingest_p99_ms"] = ip99.Value
		r.notes["ingest latency samples"] = fmt.Sprintf("%d batches, %d beyond p99", ip99.N, ip99.Beyond)
		v["serve.ingest_elapsed_p99_ms"] = percentile(ing.srv, 0.99).Value
		v["serve.ingest_http_p50_ms"] = percentile(ing.http, 0.5).Value
		v["bench.ingest_late_ms_max"] = ing.lateMaxMS
	} else {
		for _, name := range []string{"ingest_p50_ms", "ingest_p99_ms", "checkpoint_s", "serve.ingest_elapsed_p99_ms",
			"serve.ingest_http_p50_ms", "bench.ingest_late_ms_max", "dynamic.update_ios_per_item",
			"dynamic.insert_batch_us_per_item", "dynamic.delete_batch_us_per_item", "dynamic.batch_max_ms",
			"dynamic.query_slowdown", "dynamic.rebuilds", "dynamic.partial_rebuilds", "dynamic.overlay_levels"} {
			r.na[name] = true
		}
	}
	if !w.disk {
		r.na["em.preads_per_query"], r.na["em.read_bytes_per_query"] = true, true
	}
	if w.shards == 1 {
		r.na["shard.fanout_over_single"] = true
	}
	r.notes["machine"] = fmt.Sprintf("%d CPUs, %s %s/%s", runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
