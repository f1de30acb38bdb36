// Package cluster is the multi-process serving tier over the library's
// shard layer: N-way replica groups (rendezvous-hashed shard → node
// ownership at replication factor R), a coordinator that fans each
// query batch out to one replica per shard with hedged reads, and the
// request-lifecycle degradation ladder extended across processes.
//
// The paper gives per-process I/O bounds; this package is the serving
// discipline on top. Three invariants carry correctness across the
// process boundary:
//
//  1. Partition exactness (Lemma 2): every shard is the same engine a
//     single-process sharded index would hold, restored from the same
//     per-shard snapshot file, so the coordinator's k-way merge of
//     per-shard top-k core-sets is byte-identical to the one-process
//     answer — the conformance suite asserts this for every registered
//     problem.
//  2. Replica interchangeability: replicas of a shard restore from the
//     same snapshot file, so any of them produces the same determinstic
//     answer and stats — which is what makes hedged reads safe: racing
//     two replicas can change latency, never the answer.
//  3. Degradation monotonicity: a shard that trips its lifecycle limits
//     under DegradeToMax still contributes its exact local top-1, so
//     the merged head is the exact global maximum (OutcomeDegraded, a
//     correct prefix); only transport loss of a whole replica group
//     yields a typed refusal (OutcomeUnavailable), never a wrong
//     answer.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// ShardRequest is one shard's slice of a coordinator query batch, in
// the wire shape POST /cluster/query accepts.
type ShardRequest struct {
	Shard   int               `json:"shard"`
	Queries []json.RawMessage `json:"queries"`
	K       int               `json:"k"`
	// BudgetIOs caps the simulated I/Os per query on this shard
	// (0 = unbudgeted), mirroring QueryCtx.IOBudget.
	BudgetIOs int64 `json:"budget_ios,omitempty"`
	// DeadlineMS is the wall-clock time remaining when the coordinator
	// dispatched the request: > 0 milliseconds left, 0 no deadline, < 0
	// already expired (the node aborts immediately, degrading if asked).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Degrade arms the top-1 Max fallback on abort.
	Degrade bool `json:"degrade,omitempty"`
}

// WireItem is one answer item in the /query wire shape.
type WireItem struct {
	Weight float64 `json:"weight"`
	Label  string  `json:"label,omitempty"`
}

// ShardResult is one query's answer from one shard — and, summed across
// shards by the coordinator, one query's slice of the client response.
// The field set and order match topk-serve's /query results exactly, so
// a coordinator is a drop-in target for existing clients and loadgen.
type ShardResult struct {
	Items   []WireItem `json:"items"`
	Reads   int64      `json:"reads"`
	Writes  int64      `json:"writes"`
	Hits    int64      `json:"hits"`
	IOs     int64      `json:"ios"`
	Outcome string     `json:"outcome"`
	Error   string     `json:"error,omitempty"`
}

// ShardResponse is a replica's answer to a ShardRequest: one
// ShardResult per query, positionally aligned.
type ShardResponse struct {
	Results []ShardResult `json:"results"`
}

// NodeInfo describes one node's serving state (GET /cluster/info).
type NodeInfo struct {
	ID      string `json:"id"`
	Problem string `json:"problem"`
	Shards  []int  `json:"shards"`
	Items   int    `json:"items"`
}

// A Replica can answer shard requests. *Node implements it in-process;
// *HTTPReplica fronts a node in another process. QueryShard must honor
// ctx cancellation on its wait (the coordinator cancels losers of a
// hedged race) and return an error only for transport-level failure —
// lifecycle aborts travel inside the ShardResults.
type Replica interface {
	ID() string
	QueryShard(ctx context.Context, req ShardRequest) (ShardResponse, error)
	Info(ctx context.Context) (NodeInfo, error)
}

// HTTPReplica drives a remote node's /cluster endpoints. The zero
// client means http.DefaultClient; cancellation rides the request
// context, which aborts the in-flight HTTP exchange.
type HTTPReplica struct {
	id     string
	base   string // e.g. "http://10.0.0.3:18111"
	client *http.Client
}

// NewHTTPReplica fronts the node at baseURL under the given cluster
// node ID (the name ownership is computed over).
func NewHTTPReplica(id, baseURL string, client *http.Client) *HTTPReplica {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPReplica{id: id, base: baseURL, client: client}
}

// ID returns the replica's cluster node ID.
func (r *HTTPReplica) ID() string { return r.id }

// QueryShard posts the request to the node's /cluster/query.
func (r *HTTPReplica) QueryShard(ctx context.Context, req ShardRequest) (ShardResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return ShardResponse{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/cluster/query", bytes.NewReader(body))
	if err != nil {
		return ShardResponse{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(hreq)
	if err != nil {
		return ShardResponse{}, fmt.Errorf("node %s: %w", r.id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return ShardResponse{}, fmt.Errorf("node %s: %s: %s", r.id, resp.Status, bytes.TrimSpace(msg))
	}
	var out ShardResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return ShardResponse{}, fmt.Errorf("node %s: decoding response: %w", r.id, err)
	}
	return out, nil
}

// Info fetches the node's /cluster/info.
func (r *HTTPReplica) Info(ctx context.Context) (NodeInfo, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/cluster/info", nil)
	if err != nil {
		return NodeInfo{}, err
	}
	resp, err := r.client.Do(hreq)
	if err != nil {
		return NodeInfo{}, fmt.Errorf("node %s: %w", r.id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return NodeInfo{}, fmt.Errorf("node %s: %s", r.id, resp.Status)
	}
	var info NodeInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return NodeInfo{}, fmt.Errorf("node %s: decoding info: %w", r.id, err)
	}
	return info, nil
}
