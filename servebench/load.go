package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"topk"
)

// The ingest-overlay write stream: one writer posts a batch every
// 1/ingestRate seconds on a fixed schedule (open loop), whatever the
// server's speed, so a faster write path cannot change how far the
// overlay grows.
const (
	ingestRate   = 50 // batches per second
	ingestItems  = 32 // items inserted per batch
	ingestWindow = 16 // batch i deletes the items of batch i-ingestWindow
)

// runner carries one invocation's state from the served phase to the
// report.
type runner struct {
	cfg  config
	dir  string // this run's temporary directory
	tr   *tracer
	pool *queryPool
	vals map[string]float64
	// na marks metrics of layers the workload bypasses; they report 0.
	na    map[string]bool
	notes map[string]string

	attempted, failed          int64
	wrong, httpErrors, aborted int64
	problems                   []string
}

func (r *runner) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// queryPool is the seeded traffic the readers draw from.
type queryPool struct {
	batch int               // queries per request
	wire  []json.RawMessage // the distinct pool queries, in /query wire form
	// want holds each pool query's full-scan top-k weights; nil when
	// answers change during the run (ingest-overlay).
	want   [][]float64
	bodies [][]byte      // /query request bodies, cycled by the readers
	wants  [][][]float64 // want of each body's queries
}

// batchedRequests is how many request bodies a batched workload deals
// from its pool: more than a run sends, so the slowest requests are not
// a few combinations repeated.
const batchedRequests = 4096

// oracleSample is how many pool queries per run are checked against
// Served.Oracle, which scans every item and renders a label for each
// match, too slow to run for the whole pool.
const oracleSample = 64

// newPool draws the run's query pool from its seed and computes every
// pool query's expected answer: the top-k of a full scan, taken from
// the reference index (built with the FullScan reduction) and itself
// checked against Served.Oracle on a sample. Single-query requests
// cycle through the pool; batched requests draw their queries from it
// at random.
func (r *runner) newPool(spec topk.ProblemSpec, ref topk.Served) (*queryPool, error) {
	w, seed := r.cfg.w, r.cfg.seed
	p := &queryPool{batch: w.batch, wire: spec.WireQueries(w.pool, seed)}
	var picks [][]int
	if w.batch == 1 {
		for i := range p.wire {
			picks = append(picks, []int{i})
		}
	} else {
		rng := rand.New(rand.NewPCG(seed, 0))
		for j := 0; j < batchedRequests; j++ {
			pick := make([]int, w.batch)
			for i := range pick {
				pick[i] = rng.IntN(len(p.wire))
			}
			picks = append(picks, pick)
		}
	}
	if !w.ingest {
		qs := make([]any, len(p.wire))
		for i, raw := range p.wire {
			q, err := ref.DecodeQuery(raw)
			if err != nil {
				return nil, fmt.Errorf("decoding pool query %d: %w", i, err)
			}
			qs[i] = q
		}
		for _, res := range ref.QueryBatch(qs, topK, 0) {
			p.want = append(p.want, weights(res.Items, topK))
		}
		truth, err := oracleTopK(ref, p.wire[:oracleSample])
		if err != nil {
			return nil, err
		}
		for i, ws := range truth {
			r.attempted++
			if !slices.Equal(ws, p.want[i]) {
				r.failed++
				r.wrong++
				r.problem("pool query %d: full scan %v, Served.Oracle %v", i, p.want[i], ws)
			}
		}
	}
	for _, pick := range picks {
		qs := make([]json.RawMessage, len(pick))
		var want [][]float64
		for i, k := range pick {
			qs[i] = p.wire[k]
			if p.want != nil {
				want = append(want, p.want[k])
			}
		}
		p.bodies = append(p.bodies, queryBody(qs))
		p.wants = append(p.wants, want)
	}
	return p, nil
}

func queryBody(qs []json.RawMessage) []byte {
	b, _ := json.Marshal(map[string]any{"queries": qs, "k": topK})
	return b
}

// oracleTopK decodes each wire query in-process and returns the top-k
// weights of the full-scan oracle, on two goroutines.
func oracleTopK(ref topk.Served, wire []json.RawMessage) ([][]float64, error) {
	out := make([][]float64, len(wire))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(wire); i += 2 {
				q, err := ref.DecodeQuery(wire[i])
				if err != nil {
					errs[g] = fmt.Errorf("decoding pool query %d: %w", i, err)
					return
				}
				out[i] = weights(ref.Oracle(q), topK)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func weights(items []topk.ServedItem, k int) []float64 {
	if len(items) > k {
		items = items[:k]
	}
	ws := make([]float64, len(items))
	for i, it := range items {
		ws[i] = it.Weight
	}
	return ws
}

// queryResponse is the part of a /query response the benchmark reads.
type queryResponse struct {
	Elapsed string `json:"elapsed"`
	Results []struct {
		Items []struct {
			Weight float64 `json:"weight"`
		} `json:"items"`
		IOs     int64  `json:"ios"`
		Outcome string `json:"outcome"`
	} `json:"results"`
}

// verdict is what one /query response says about correctness.
type verdict struct {
	ok, wrong, aborted int // queries answered ok and right, wrong, not ok
	ios                int64
}

// checkResponse compares a decoded /query response for nq queries with
// the oracle's top-k weights; want nil checks only the outcomes. A
// missing result counts as a wrong answer.
func checkResponse(resp *queryResponse, nq int, want [][]float64) verdict {
	var v verdict
	for i := 0; i < nq; i++ {
		if i >= len(resp.Results) {
			v.wrong++
			continue
		}
		res := resp.Results[i]
		v.ios += res.IOs
		if res.Outcome != "ok" {
			v.aborted++
			continue
		}
		if want != nil && !sameWeights(res.Items, want[i]) {
			v.wrong++
			continue
		}
		v.ok++
	}
	return v
}

func sameWeights(items []struct {
	Weight float64 `json:"weight"`
}, want []float64) bool {
	if len(items) != len(want) {
		return false
	}
	for i := range items {
		if items[i].Weight != want[i] {
			return false
		}
	}
	return true
}

// loadStats is one phase's read traffic.
type loadStats struct {
	lat, srv, httpUS       []float64 // per request: client ms, server-reported ms, client−server µs
	requests, failed       int64
	queries, okQueries     int64
	ios                    int64
	wrong, httpErrs, abort int64
	elapsed                time.Duration
}

func (s *loadStats) merge(o *loadStats) {
	s.lat = append(s.lat, o.lat...)
	s.srv = append(s.srv, o.srv...)
	s.httpUS = append(s.httpUS, o.httpUS...)
	s.requests += o.requests
	s.failed += o.failed
	s.queries += o.queries
	s.okQueries += o.okQueries
	s.ios += o.ios
	s.wrong += o.wrong
	s.httpErrs += o.httpErrs
	s.abort += o.abort
}

// ask sends one /query body and tallies the answer into s, under a
// bench.query root span when traced.
func ask(c *child, tr *tracer, body []byte, nq int, want [][]float64, s *loadStats) {
	op := tr.start("bench.query", 0, 0)
	h := tr.start("serve.query", op.id, op.op)
	code, b, err := c.post("/query", "application/json", body)
	lat := tr.end(h)
	chk := tr.start("bench.check", op.id, op.op)
	s.requests++
	s.queries += int64(nq)
	var resp queryResponse
	if err == nil && code == 200 {
		err = json.Unmarshal(b, &resp)
	}
	if err != nil || code != 200 {
		s.httpErrs++
		s.failed++
	} else {
		v := checkResponse(&resp, nq, want)
		s.okQueries += int64(v.ok)
		s.ios += v.ios
		s.wrong += int64(v.wrong)
		s.abort += int64(v.aborted)
		if v.ok != nq {
			s.failed++
		}
		srv, perr := time.ParseDuration(resp.Elapsed)
		if perr == nil {
			s.lat = append(s.lat, float64(lat)/1e6)
			s.srv = append(s.srv, float64(srv)/1e6)
			s.httpUS = append(s.httpUS, float64(lat-srv)/1e3)
		}
	}
	tr.end(chk)
	tr.end(op)
}

// readers runs n closed-loop readers until the deadline, each sending
// its next request only after the previous answer, and returns their
// merged traffic. Past the deadline they go on until they have sent
// atLeast requests in all or hardStop passes.
func readers(ctx context.Context, c *child, tr *tracer, p *queryPool, n int, next *atomic.Int64,
	until time.Time, atLeast int64, hardStop time.Time) *loadStats {
	t0 := time.Now()
	parts := make([]*loadStats, n)
	var (
		wg   sync.WaitGroup
		sent atomic.Int64
	)
	for g := range parts {
		parts[g] = &loadStats{}
		wg.Add(1)
		go func(s *loadStats) {
			defer wg.Done()
			for ctx.Err() == nil {
				if now := time.Now(); !now.Before(until) && (sent.Load() >= atLeast || !now.Before(hardStop)) {
					return
				}
				sent.Add(1)
				i := int(next.Add(1)-1) % len(p.bodies)
				ask(c, tr, p.bodies[i], p.batch, p.wants[i], s)
			}
		}(parts[g])
	}
	wg.Wait()
	out := &loadStats{elapsed: time.Since(t0)}
	for _, s := range parts {
		out.merge(s)
	}
	return out
}

// ingestStats is the writer's traffic.
type ingestStats struct {
	due, srv, http    []float64 // per batch: ms from due time, server-reported ms, client−server ms
	lateMaxMS         float64
	attempted, failed int64
	acked             []int // acknowledged batches, in order
	items             int64 // items inserted plus deleted by acknowledged batches
}

// ingestWeight is the weight of item j of batch i: distinct, and above
// every built item's weight in [0, 1e6).
func ingestWeight(i, j int) float64 { return 1e6 + float64(i*ingestItems+j) }

// ingestBatch renders batch i of the seeded write stream as an /ingest
// NDJSON body: ingestItems new items of the problem's item shape, then,
// once the window is full, deletes of batch i-ingestWindow's items, so
// the index holds n + ingestWindow·ingestItems items in steady state.
func ingestBatch(spec topk.ProblemSpec, seed uint64, i int) []byte {
	rng := rand.New(rand.NewPCG(seed, uint64(i)))
	var b []byte
	for j := 0; j < ingestItems; j++ {
		b = appendItem(b, spec, rng, ingestWeight(i, j))
		b = append(b, '\n')
	}
	if old := i - ingestWindow; old >= 0 {
		for j := 0; j < ingestItems; j++ {
			b = append(b, `{"delete":`...)
			b = strconv.AppendFloat(b, ingestWeight(old, j), 'g', -1, 64)
			b = append(b, "}\n"...)
		}
	}
	return b
}

// appendItem renders one random item of the problem's /ingest shape
// with weight w: an interval for "interval", a point of the spec's
// dimension otherwise. Coordinates lie in [0, 100) like the built set.
func appendItem(b []byte, spec topk.ProblemSpec, rng *rand.Rand, w float64) []byte {
	f := func(b []byte, x float64) []byte { return strconv.AppendFloat(b, x, 'g', -1, 64) }
	if spec.Name == "interval" {
		lo := rng.Float64() * 100
		b = append(b, `{"lo":`...)
		b = f(b, lo)
		b = append(b, `,"hi":`...)
		b = f(b, lo+rng.ExpFloat64()*5)
	} else {
		b = append(b, `{"coords":[`...)
		for d := 0; d < spec.Dim; d++ {
			if d > 0 {
				b = append(b, ',')
			}
			b = f(b, rng.Float64()*100)
		}
		b = append(b, ']')
	}
	b = append(b, `,"weight":`...)
	b = f(b, w)
	return append(b, '}')
}

// ingestResponse is the part of an /ingest response the benchmark reads.
type ingestResponse struct {
	Inserted int    `json:"inserted"`
	Deleted  int    `json:"deleted"`
	Elapsed  string `json:"elapsed"`
}

// writer posts the write stream on its fixed schedule from t0 until the
// deadline. Each batch's latency runs from its due time, so a stall
// also charges the batches queued behind it.
func writer(ctx context.Context, c *child, tr *tracer, spec topk.ProblemSpec, seed uint64, t0, until time.Time) *ingestStats {
	s := &ingestStats{}
	interval := time.Second / ingestRate
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if !due.Before(until) || ctx.Err() != nil {
			return s
		}
		body := ingestBatch(spec, seed, i)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s.lateMaxMS = max(s.lateMaxMS, float64(time.Since(due))/1e6)
		s.attempted++
		sp := tr.start("serve.ingest", 0, 0)
		code, b, err := c.post("/ingest", "application/x-ndjson", body)
		lat := tr.end(sp)
		var resp ingestResponse
		if err == nil && code == 200 {
			err = json.Unmarshal(b, &resp)
		}
		srv, perr := time.ParseDuration(resp.Elapsed)
		if err != nil || code != 200 || perr != nil {
			s.failed++
			continue
		}
		s.acked = append(s.acked, i)
		s.items += int64(resp.Inserted + resp.Deleted)
		s.due = append(s.due, float64(time.Since(due))/1e6)
		s.srv = append(s.srv, float64(srv)/1e6)
		s.http = append(s.http, float64(lat-srv)/1e6)
	}
}

// applyBatch applies one /ingest body to an in-process index the way
// topk-serve does: every item line through DecodeItem into one
// InsertBatch, then the deletes as one DeleteBatch. It returns the
// time spent in each call.
func applyBatch(ix topk.Served, body []byte, tr *tracer, parent open) (dec, ins, del time.Duration, err error) {
	var items []any
	var dels []float64
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte{'\n'}) {
		var d struct {
			Delete *float64 `json:"delete"`
		}
		if err := json.Unmarshal(line, &d); err != nil {
			return 0, 0, 0, err
		}
		if d.Delete != nil {
			dels = append(dels, *d.Delete)
			continue
		}
		sp := tr.start("registry.decode_item", parent.id, parent.op)
		it, err := ix.DecodeItem(line)
		dec += tr.end(sp)
		if err != nil {
			return 0, 0, 0, err
		}
		items = append(items, it)
	}
	sp := tr.start("dynamic.insert_batch", parent.id, parent.op)
	err = ix.InsertBatch(items)
	ins = tr.end(sp)
	if err != nil || len(dels) == 0 {
		return dec, ins, 0, err
	}
	sp = tr.start("dynamic.delete_batch", parent.id, parent.op)
	_, err = ix.DeleteBatch(dels)
	del = tr.end(sp)
	return dec, ins, del, err
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes is the total size of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
