package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"topk"
)

// answer builds the /query response body a correct server would send
// for qs on ix, letting alter change it first.
func answer(t *testing.T, ix topk.Served, qs []any, alter func(*queryResponse)) []byte {
	t.Helper()
	var resp queryResponse
	resp.Elapsed = "1ms"
	for _, q := range qs {
		var res struct {
			Items []struct {
				Weight float64 `json:"weight"`
			} `json:"items"`
			IOs     int64  `json:"ios"`
			Outcome string `json:"outcome"`
		}
		for _, it := range ix.TopK(q, topK) {
			res.Items = append(res.Items, struct {
				Weight float64 `json:"weight"`
			}{it.Weight})
		}
		res.IOs, res.Outcome = 7, "ok"
		resp.Results = append(resp.Results, res)
	}
	alter(&resp)
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAlteredAnswerCountsAsError(t *testing.T) {
	spec, _ := topk.ProblemByName("interval")
	ix, err := spec.Build(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 4
	r := &runner{cfg: config{w: workload{batch: batch, pool: oracleSample}, seed: 5}}
	pool, err := r.newPool(spec, ix)
	if err != nil || r.failed != 0 {
		t.Fatalf("pool: %v, %d full-scan answers differ from Served.Oracle", err, r.failed)
	}
	qs := make([]any, batch)
	for i, raw := range pool.bodies[0:1] {
		var body struct{ Queries []json.RawMessage }
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatal(err)
		}
		for j, q := range body.Queries {
			if qs[j], err = ix.DecodeQuery(q); err != nil {
				t.Fatal(i, err)
			}
		}
	}
	cases := []struct {
		name                 string
		alter                func(*queryResponse)
		failed, wrong, abort int64
	}{
		{"unaltered", func(*queryResponse) {}, 0, 0, 0},
		{"weight changed", func(r *queryResponse) { r.Results[2].Items[0].Weight += 1 }, 1, 1, 0},
		{"item dropped", func(r *queryResponse) { r.Results[1].Items = r.Results[1].Items[1:] }, 1, 1, 0},
		{"result missing", func(r *queryResponse) { r.Results = r.Results[:batch-1] }, 1, 1, 0},
		{"degraded", func(r *queryResponse) { r.Results[0].Outcome = "degraded" }, 1, 0, 1},
	}
	for _, c := range cases {
		body := answer(t, ix, qs, c.alter)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write(body) }))
		s := &loadStats{}
		ask(&child{base: srv.URL, client: srv.Client()}, nil, pool.bodies[0], batch, pool.wants[0], s)
		srv.Close()
		if s.requests != 1 || s.failed != c.failed || s.wrong != c.wrong || s.abort != c.abort {
			t.Errorf("%s: requests %d failed %d wrong %d aborted %d; want 1 %d %d %d",
				c.name, s.requests, s.failed, s.wrong, s.abort, c.failed, c.wrong, c.abort)
		}
	}

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	s := &loadStats{}
	ask(&child{base: srv.URL, client: srv.Client()}, nil, pool.bodies[0], batch, pool.wants[0], s)
	if s.failed != 1 || s.httpErrs != 1 {
		t.Errorf("503: failed %d http errors %d; want 1 1", s.failed, s.httpErrs)
	}
}

func TestReadersRunOnToTheFloor(t *testing.T) {
	spec, _ := topk.ProblemByName("interval")
	ix, err := spec.Build(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{cfg: config{w: workload{batch: 1, pool: oracleSample}, seed: 5}}
	pool, err := r.newPool(spec, ix)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := &child{base: srv.URL, client: srv.Client()}
	var next atomic.Int64
	now := time.Now()
	if s := readers(context.Background(), c, nil, pool, 2, &next, now, 50, now.Add(time.Minute)); s.requests < 50 {
		t.Errorf("past the deadline with a floor of 50: %d requests", s.requests)
	}
	if s := readers(context.Background(), c, nil, pool, 2, &next, now, 50, now); s.requests != 0 {
		t.Errorf("past the deadline and the hard stop: %d requests, want 0", s.requests)
	}
}
