// Command servebench is the served-path benchmark. Each run drives a
// fresh topk-serve child over loopback HTTP with one workload, checks
// every answer against a full-scan oracle, and prints the run's metrics.
// An untraced run (-trace 0) prints the end-to-end metrics a client
// sees; a traced run (-trace 1) prints per-layer metrics, timed by spans
// around the calls the benchmark makes into each layer's public surface
// (topk-serve's endpoints and the topk / Served API in-process), and
// writes those spans to a file.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// run.sh builds topk-serve and this command from the checkout and runs
// it; see README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// workload is one traffic mix against one topk-serve configuration.
type workload struct {
	name    string
	problem string
	shards  int
	disk    bool // page blocks through a file under -disk-dir
	warm    bool // boot by restoring a snapshot prepared before the run
	ingest  bool // -updates -maintenance buffered -snapshot-dir, plus the open-loop writer
	batch   int  // queries per /query request
	readers int  // closed-loop reader connections
	// pool is how many distinct seeded queries the readers cycle
	// through. Each costs one full-scan oracle call before the run, and
	// the mean cost of the pool moves less between seeds as it grows.
	pool int
	// inprocQueries is how many pool queries (at most pool) the
	// traced in-process phase times per pass; heavier queries get fewer.
	inprocQueries int
}

var workloads = []workload{
	{name: "serve-hot", problem: "interval", shards: 1, batch: 1, readers: 2, pool: 2048, inprocQueries: 256},
	{name: "serve-disk-sharded", problem: "circular", shards: 4, disk: true, warm: true, batch: 4, readers: 2, pool: 2048, inprocQueries: 64},
	{name: "ingest-overlay", problem: "ortho", shards: 1, ingest: true, batch: 1, readers: 1, pool: 4096, inprocQueries: 128},
}

const (
	nItems     = 1 << 17
	topK       = 10
	setupBoots = 5 // boots per untraced run; setup_s is their median

	// minRequests is the fewest requests query_p99_ms may rest on, so
	// that ten lie beyond it; a run below it is not correct.
	minRequests = 1000

	// datasetSeed fixes the indexed items and the reductions' random
	// samples (topk-serve -seed), so every run serves the same index;
	// -seed picks the traffic: the query pool and the write stream. How
	// many I/Os a query costs depends on the index's random samples
	// (the mean moves by a third between index seeds), so a varying
	// index would hide a change in cost behind the luck of the draw.
	datasetSeed = 42
)

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one invocation's settings.
type config struct {
	w       workload
	n       int
	seed    uint64
	seconds float64
	trace   bool
	// minRequests is the fewest requests behind query_p99_ms.
	minRequests int
	server      string // topk-serve binary
	work        string // directory for temporary index directories, logs and spans
	out         io.Writer
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve-hot | serve-disk-sharded | ingest-overlay | all")
		seed    = flag.Uint64("seed", 1, "seed for the traffic: the query pool and the ingest stream")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
		server  = flag.String("server", "", "topk-serve binary built from the tree under test")
		work    = flag.String("work", ".bench_build", "directory for temporary index directories, logs and spans")
	)
	flag.Parse()
	ws := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "servebench: unknown -workload %q\n", *name)
			os.Exit(2)
		}
		ws = []workload{w}
	}
	if *server == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need -server, -seconds > 0 and -trace 0 or 1")
		os.Exit(2)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	for _, w := range ws {
		cfg := config{w: w, n: nItems, seed: *seed, seconds: *seconds, trace: *trace == 1,
			minRequests: minRequests, server: *server, work: *work, out: os.Stdout}
		res, err := run(ctx, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", w.name, err)
			cancel()
			os.Exit(1)
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
	}
}

// run performs one invocation: an untraced run reporting end-to-end
// metrics, or a traced run reporting per-layer metrics.
func run(ctx context.Context, cfg config) (result, error) {
	if err := os.MkdirAll(filepath.Join(cfg.work, "tmp"), 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(filepath.Join(cfg.work, "tmp"), cfg.w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	r := &runner{cfg: cfg, dir: dir, tr: tr, vals: make(map[string]float64)}
	if err := r.served(ctx); err != nil {
		return result{}, err
	}
	defs := endToEnd
	if cfg.trace {
		if err := r.inproc(); err != nil {
			return result{}, err
		}
		defs = perLayer
	}
	r.vals["error_rate"] = ratio(float64(r.failed), float64(r.attempted))
	r.vals["serve.http_errors"] = float64(r.httpErrors)
	r.vals["engine.aborted_outcomes"] = float64(r.aborted)
	r.vals["bench.wrong_answers"] = float64(r.wrong)
	res := result{Correct: r.failed == 0 && r.problems == nil, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric)}
	r.printReport(defs)
	for _, d := range defs {
		res.Metrics[d.Name] = metric{Value: r.vals[d.Name], Unit: d.Unit}
	}
	if tr != nil {
		spans := filepath.Join(cfg.work, "spans", cfg.w.name+".jsonl")
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
			return result{}, err
		}
		if err := tr.write(spans); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		printSelfTimes(cfg.out, tr.sorted())
		fmt.Fprintf(cfg.out, "# spans written to %s\n", spans)
	}
	return res, nil
}

// printReport writes the human-readable report that precedes the
// result line: every metric of defs with its unit (n/a where the
// workload bypasses the layer), then the end-to-end metrics that exist
// on only some workloads, then any correctness problem seen.
func (r *runner) printReport(defs []metricDef) {
	w := r.cfg.out
	mode := "untraced"
	if r.cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g %s: %s n=%d shards=%d\n", r.cfg.w.name, r.cfg.seed,
		r.cfg.seconds, mode, r.cfg.w.problem, r.cfg.n, r.cfg.w.shards)
	shown := make(map[string]bool)
	line := func(d metricDef) {
		shown[d.Name] = true
		if r.na[d.Name] {
			fmt.Fprintf(w, "%-34s %14s %s\n", d.Name, "n/a", d.Unit)
			return
		}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", d.Name, r.vals[d.Name], d.Unit)
	}
	for _, d := range defs {
		line(d)
	}
	for _, d := range perLayer[:7] {
		if !shown[d.Name] {
			line(d)
		}
	}
	for _, name := range sortedKeys(r.notes) {
		fmt.Fprintf(w, "# %s: %s\n", name, r.notes[name])
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# PROBLEM: %s\n", p)
	}
}

func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
