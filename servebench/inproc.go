package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"topk"
)

// passes is how many times each in-process timing is repeated; the
// median pass is reported.
const passes = 3

// inproc is the traced run's in-process half: it builds an index with
// the server's problem, n, shards, options and inputs, and times the
// calls into the registry (Served), engine, shard, dynamic and snap
// layers from outside, one span per public call.
func (r *runner) inproc() error {
	w, tr, v := r.cfg.w, r.tr, r.vals
	spec, _ := topk.ProblemByName(w.problem)
	opts := func(tag string) []topk.Option {
		disk := ""
		if w.disk {
			disk = filepath.Join(r.dir, "inproc-disk-"+tag)
		}
		return serverOptions(w, datasetSeed, disk)
	}

	ph := tr.start("bench.build", 0, 0)
	sp := tr.start("engine.build", ph.id, ph.op)
	ix, err := buildIndex(spec, r.cfg.n, w.shards, datasetSeed, opts("build")...)
	v["engine.build_s"] = tr.end(sp).Seconds()
	tr.end(ph)
	if err != nil {
		return fmt.Errorf("in-process build: %w", err)
	}
	defer func() { ix.Close() }()
	v["em.blocks_per_item"] = ratio(float64(ix.Stats().Blocks), float64(ix.Len()))

	wire := r.pool.wire[:w.inprocQueries]
	qs := make([]any, len(wire))
	var decode []float64
	for p := 0; p < passes; p++ {
		ph := tr.start("bench.decode_queries", 0, 0)
		var sum time.Duration
		for i, raw := range wire {
			sp := tr.start("registry.decode_query", ph.id, ph.op)
			q, err := ix.DecodeQuery(raw)
			sum += tr.end(sp)
			if err != nil {
				return fmt.Errorf("decoding query %d: %w", i, err)
			}
			qs[i] = q
		}
		tr.end(ph)
		decode = append(decode, us(sum)/float64(len(wire)))
	}
	v["registry.decode_query_us"] = median(decode)

	if w.ingest {
		if err := r.stream(spec, ix, qs); err != nil {
			return err
		}
	} else if err := r.decodeItems(spec, ix); err != nil {
		return err
	}

	ph = tr.start("bench.snapshot", 0, 0)
	snapDir := filepath.Join(r.dir, "inproc-snap")
	sp = tr.start("snap.snapshot", ph.id, ph.op)
	err = ix.Snapshot(snapDir)
	v["snap.snapshot_s"] = tr.end(sp).Seconds()
	tr.end(ph)
	if err != nil {
		return fmt.Errorf("in-process snapshot: %w", err)
	}
	size, err := dirBytes(snapDir)
	if err != nil {
		return err
	}
	v["snap.bytes_per_item"] = ratio(float64(size), float64(ix.Len()))
	ph = tr.start("bench.restore", 0, 0)
	sp = tr.start("snap.restore", ph.id, ph.op)
	rx, err := spec.Restore(snapDir, opts("restore")...)
	v["snap.restore_s"] = tr.end(sp).Seconds()
	tr.end(ph)
	if err != nil {
		return fmt.Errorf("in-process restore: %w", err)
	}
	v["snap.restore_read_ios"] = float64(rx.Stats().Reads)
	// A warm-started server answers from the restored index.
	if w.warm {
		ix.Close()
		ix = rx
	} else {
		rx.Close()
	}

	r.checkInproc(ix, qs)
	serial := r.serial(ix, qs, "bench.serial")
	v["engine.serial_topk_us"] = us(serial) / float64(len(qs))

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	r.serialOnce(ix, qs, "bench.allocs")
	runtime.ReadMemStats(&ms1)
	v["engine.allocs_per_query"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(qs))
	v["engine.alloc_bytes_per_query"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(qs))

	var one []float64
	for p := 0; p < passes; p++ {
		ph := tr.start("bench.query_batch_one", 0, 0)
		var sum time.Duration
		for _, q := range qs {
			sp := tr.start("registry.query_batch_ctx", ph.id, ph.op)
			ix.QueryBatchCtx(topk.QueryCtx{}, []any{q}, topK, 1)
			sum += tr.end(sp)
		}
		tr.end(ph)
		one = append(one, us(sum)/float64(len(qs)))
	}
	v["registry.query_batch_us"] = median(one)

	batch := func(p int) time.Duration {
		var ds []float64
		for i := 0; i < passes; i++ {
			ph := tr.start(fmt.Sprintf("bench.query_batch_p%d", p), 0, 0)
			sp := tr.start("engine.query_batch", ph.id, ph.op)
			ix.QueryBatch(qs, topK, p)
			ds = append(ds, float64(tr.end(sp)))
			tr.end(ph)
		}
		return time.Duration(median(ds))
	}
	p1 := batch(1)
	v["engine.batch_over_serial"] = ratio(float64(p1), float64(serial))
	v["engine.parallel_speedup"] = ratio(float64(p1), float64(batch(runtime.GOMAXPROCS(0))))

	v["shard.fanout_over_single"] = 1
	if w.shards > 1 {
		ph := tr.start("bench.build_single", 0, 0)
		sp := tr.start("engine.build", ph.id, ph.op)
		single, err := spec.Build(r.cfg.n, datasetSeed, opts("single")...)
		tr.end(sp)
		tr.end(ph)
		if err != nil {
			return fmt.Errorf("building the one-shard index: %w", err)
		}
		defer single.Close()
		v["shard.fanout_over_single"] = ratio(float64(serial), float64(r.serial(single, qs, "bench.serial_single")))
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// serial returns the median over passes of one serial TopK loop over qs.
func (r *runner) serial(ix topk.Served, qs []any, name string) time.Duration {
	var ds []float64
	for p := 0; p < passes; p++ {
		ds = append(ds, float64(r.serialOnce(ix, qs, name)))
	}
	return time.Duration(median(ds))
}

// serialOnce is one serial TopK loop over qs, returning the time spent
// inside TopK.
func (r *runner) serialOnce(ix topk.Served, qs []any, name string) time.Duration {
	ph := r.tr.start(name, 0, 0)
	var sum time.Duration
	for _, q := range qs {
		sp := r.tr.start("engine.topk", ph.id, ph.op)
		ix.TopK(q, topK)
		sum += r.tr.end(sp)
	}
	r.tr.end(ph)
	return sum
}

// checkInproc counts in-process TopK answers that differ from the
// expected ones: the pool's full-scan answers on the read workloads,
// the index's own Served.Oracle for a sample after the write stream.
func (r *runner) checkInproc(ix topk.Served, qs []any) {
	var want [][]float64
	if r.pool.want == nil {
		want = make([][]float64, oracleSample)
		for i := range want {
			want[i] = weights(ix.Oracle(qs[i]), topK)
		}
	} else {
		want = r.pool.want
	}
	for i := 0; i < len(qs) && i < len(want); i++ {
		r.attempted++
		if got := weights(ix.TopK(qs[i], topK), topK); !slices.Equal(got, want[i]) {
			r.failed++
			r.wrong++
			r.problem("in-process query %d: TopK %v, oracle %v", i, got, want[i])
		}
	}
}

// stream applies the write stream the served run posts (the same
// batches, as many as its window schedules) to the in-process overlay,
// timing each InsertBatch and DeleteBatch, and measures how much slower
// TopK got over it.
func (r *runner) stream(spec topk.ProblemSpec, ix topk.Served, qs []any) error {
	tr, v := r.tr, r.vals
	before := r.serial(ix, qs, "bench.serial_before_stream")
	nb := int(r.cfg.seconds * ingestRate)
	var dec, ins, del time.Duration
	var items, deleted int
	var most float64
	for i := 0; i < nb; i++ {
		body := ingestBatch(spec, r.cfg.seed, i)
		ph := tr.start("bench.ingest_batch", 0, 0)
		d, in, de, err := applyBatch(ix, body, tr, ph)
		tr.end(ph)
		if err != nil {
			return fmt.Errorf("in-process batch %d: %w", i, err)
		}
		dec, ins, del = dec+d, ins+in, del+de
		items += ingestItems
		if i >= ingestWindow {
			deleted += ingestItems
		}
		most = max(most, float64(in+de)/1e6)
	}
	after := r.serial(ix, qs, "bench.serial_after_stream")
	v["registry.decode_item_us"] = us(dec) / float64(items)
	v["dynamic.insert_batch_us_per_item"] = us(ins) / float64(items)
	v["dynamic.delete_batch_us_per_item"] = ratio(us(del), float64(deleted))
	v["dynamic.batch_max_ms"] = most
	v["dynamic.query_slowdown"] = ratio(float64(after), float64(before))
	return nil
}

// decodeItems times DecodeItem over seeded items of the problem's
// /ingest shape on a workload that posts no writes.
func (r *runner) decodeItems(spec topk.ProblemSpec, ix topk.Served) error {
	rng := rand.New(rand.NewPCG(r.cfg.seed, 1<<63))
	lines := make([]json.RawMessage, 1024)
	for i := range lines {
		lines[i] = appendItem(nil, spec, rng, ingestWeight(0, i))
	}
	var ds []float64
	for p := 0; p < passes; p++ {
		ph := r.tr.start("bench.decode_items", 0, 0)
		var sum time.Duration
		for _, line := range lines {
			sp := r.tr.start("registry.decode_item", ph.id, ph.op)
			_, err := ix.DecodeItem(line)
			sum += r.tr.end(sp)
			if err != nil {
				return fmt.Errorf("decoding item %s: %w", line, err)
			}
		}
		r.tr.end(ph)
		ds = append(ds, us(sum)/float64(len(lines)))
	}
	r.vals["registry.decode_item_us"] = median(ds)
	return nil
}
