package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"topk"
)

// NewHTTPServer returns the http.Server that topk-serve and topk-node
// listen with; a nil h serves http.DefaultServeMux. A client that
// stalls mid-header is cut off after ReadHeaderTimeout instead of
// holding a goroutine and a file descriptor, and keep-alive connections
// left unused for IdleTimeout are closed. There is no ReadTimeout or
// WriteTimeout: snapshot shipping and /ingest bodies may run for
// minutes, and the handlers cap their own body sizes.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// Server is the coordinator's HTTP surface. Its POST /query is
// byte-compatible with topk-serve's (same body, same response envelope
// modulo the elapsed timing string), so clients and topk-loadgen work
// against either unchanged.
type Server struct {
	co      *Coordinator
	snapDir string
	nodes   []string
}

// NewServer wraps a coordinator. snapDir, when non-empty, is the
// partitioned snapshot directory the coordinator also serves for
// replica bootstrap (GET /snapshot/manifest, /snapshot/file/{name}).
// nodes is the full cluster node ID list handed out via
// GET /cluster/config — the list ownership is computed over.
func NewServer(co *Coordinator, snapDir string, nodes []string) *Server {
	return &Server{co: co, snapDir: snapDir, nodes: nodes}
}

// Handler returns the coordinator's HTTP mux:
//
//	POST /query             topk-serve-compatible query batches
//	GET  /cluster/config    cluster geometry for node bootstrap
//	GET  /snapshot/...      snapshot shipping (when configured)
//	GET  /metrics           Prometheus text exposition
//	GET  /readyz            200 once every shard has a live owner
//	GET  /healthz           liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/cluster/config", func(w http.ResponseWriter, _ *http.Request) {
		cfg := s.co.Config()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(RemoteConfig{
			Problem: cfg.Problem, Shards: cfg.Shards,
			Replication: cfg.Replication, Nodes: s.nodes,
		})
	})
	if s.snapDir != "" {
		mux.Handle("/snapshot/", SnapshotHandler(s.snapDir))
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.co.Metrics().Registry().WritePrometheus(w)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if err := s.co.Ready(r.Context()); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// QueryRequest is the POST /query body shared by topk-serve and the
// coordinator. Queries are problem-shaped; see GET /problems for each
// problem's wire shape.
type QueryRequest struct {
	Queries []json.RawMessage `json:"queries"`
	K       int               `json:"k"`
	// Parallelism sets topk-serve's batch workers (0 = its default); the
	// coordinator accepts it for parity, and its nodes pick their own.
	Parallelism int `json:"parallelism"`
	// BudgetIOs overrides the server's default I/O budget for this
	// request: > 0 sets a cap, < 0 disables the default, 0 keeps it.
	BudgetIOs int64 `json:"budget_ios,omitempty"`
	// DeadlineMS overrides the default deadline the same way.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Degrade overrides the default top-1 fallback when present.
	Degrade *bool `json:"degrade,omitempty"`
}

// MaxQueryBody caps a /query body; a larger one is refused with 413.
const MaxQueryBody = 1 << 20

// DecodeQueryRequest reads and validates one /query request: POST only,
// a body of at most MaxQueryBody bytes, 1..10000 queries, and
// 1 <= k <= 1000. On failure it has already written the error response
// (405, 413, or 400) and returns false.
func DecodeQueryRequest(w http.ResponseWriter, r *http.Request) (QueryRequest, bool) {
	var req QueryRequest
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return req, false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxQueryBody)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body over %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return req, false
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return req, false
	}
	if len(req.Queries) == 0 || len(req.Queries) > 10000 {
		http.Error(w, "need 1..10000 queries", http.StatusBadRequest)
		return req, false
	}
	if req.K <= 0 || req.K > 1000 {
		http.Error(w, "need 1 <= k <= 1000", http.StatusBadRequest)
		return req, false
	}
	return req, true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := DecodeQueryRequest(w, r)
	if !ok {
		return
	}
	start := time.Now()
	results, err := s.co.Query(r.Context(), req.Queries, req.K, QueryOptions{
		BudgetIOs: req.BudgetIOs, DeadlineMS: req.DeadlineMS, Degrade: req.Degrade,
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cfg := s.co.Config()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"problem": cfg.Problem,
		"shards":  cfg.Shards,
		"k":       req.K,
		"elapsed": time.Since(start).String(),
		"results": results,
	})
}

// SnapshotHandler serves a partitioned snapshot directory for replica
// bootstrap:
//
//	GET /snapshot/manifest      the MANIFEST.json
//	GET /snapshot/file/{name}   one manifest-listed shard file
//
// Only files the manifest lists are served, and only by base name — the
// handler never reaches outside dir. topk-serve mounts this next to its
// own endpoints so a running single-process server can seed a cluster.
func SnapshotHandler(dir string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/snapshot/manifest", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		b, err := os.ReadFile(filepath.Join(dir, topk.ManifestName))
		if err != nil {
			http.Error(w, "no snapshot manifest: "+err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	mux.HandleFunc("/snapshot/file/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		name := strings.TrimPrefix(r.URL.Path, "/snapshot/file/")
		if name == "" || name != filepath.Base(name) {
			http.Error(w, "bad file name", http.StatusBadRequest)
			return
		}
		mf, err := topk.ReadManifest(dir)
		if err != nil {
			http.Error(w, "no snapshot manifest: "+err.Error(), http.StatusNotFound)
			return
		}
		listed := false
		for _, f := range mf.Files {
			if f.Name == name {
				listed = true
				break
			}
		}
		if !listed {
			http.Error(w, fmt.Sprintf("file %q not in manifest", name), http.StatusNotFound)
			return
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		io.Copy(w, f)
	})
	return mux
}
