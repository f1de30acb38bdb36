// Command topk-node is the cluster serving binary: one executable, two
// roles.
//
// As a coordinator it owns a partitioned snapshot directory, hands the
// cluster geometry to nodes (GET /cluster/config), ships shard files for
// bootstrap (GET /snapshot/...), and answers topk-serve-compatible POST
// /query batches by fanning out to replica nodes with hedged reads:
//
//	topk-node -coordinator -addr :18110 -snapshot-dir snap \
//	    -nodes localhost:18111,localhost:18112,localhost:18113 -replicas 2
//
// As a node it bootstraps from the coordinator — fetch config, compute
// the shards it owns under rendezvous hashing, download exactly those
// snapshot files, restore each as a standalone one-shard index — then
// serves POST /cluster/query:
//
//	topk-node -addr :18111 -fetch http://localhost:18110
//
// The coordinator's /readyz turns 200 once every shard has a live
// owner. Replication, hedging, and the degradation ladder are
// documented in DESIGN.md §16.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"topk"
	"topk/internal/cluster"
)

func main() {
	log.SetFlags(0)
	var (
		addr        = flag.String("addr", ":18110", "listen address")
		coordinator = flag.Bool("coordinator", false, "run as the cluster coordinator")
		snapDir     = flag.String("snapshot-dir", "", "coordinator: partitioned snapshot directory to serve")
		nodes       = flag.String("nodes", "", "coordinator: comma-separated node IDs (host:port, dialed as http://ID)")
		replicas    = flag.Int("replicas", 2, "coordinator: replication factor R (owners per shard)")
		hedge       = flag.Duration("hedge", 0, "coordinator: fixed hedge delay (0 = derive from live p99)")
		deadline    = flag.Duration("deadline", 0, "coordinator: default per-request deadline (0 = none)")
		ioBudget    = flag.Int64("io-budget", 0, "coordinator: default per-query per-shard I/O budget (0 = off, -1 = admission control from live p99)")
		degradeMax  = flag.Bool("degrade-max", false, "coordinator: serve exact top-1 fallback when a shard trips its limits")
		id          = flag.String("id", "", "node: cluster node ID (default: -addr without leading colon, as host:port)")
		fetch       = flag.String("fetch", "", "node: coordinator base URL to bootstrap from, e.g. http://localhost:18110")
		dir         = flag.String("dir", "", "node: directory for fetched shard files (default: temp dir)")
	)
	flag.Parse()
	if *coordinator {
		runCoordinator(*addr, *snapDir, *nodes, *replicas, *hedge, *deadline, *ioBudget, *degradeMax)
		return
	}
	runNode(*addr, *id, *fetch, *dir)
}

func runCoordinator(addr, snapDir, nodeList string, replicas int, hedge, deadline time.Duration, ioBudget int64, degradeMax bool) {
	if snapDir == "" {
		log.Fatal("coordinator needs -snapshot-dir (a partitioned snapshot; see topk-snap save)")
	}
	if nodeList == "" {
		log.Fatal("coordinator needs -nodes (comma-separated host:port node IDs)")
	}
	mf, err := topk.ReadManifest(snapDir)
	if err != nil {
		log.Fatal(err)
	}
	ids := strings.Split(nodeList, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	reps := make([]cluster.Replica, len(ids))
	for i, nid := range ids {
		reps[i] = cluster.NewHTTPReplica(nid, "http://"+nid, nil)
	}
	co, err := cluster.New(cluster.Config{
		Problem: mf.Problem, Shards: mf.Shards, Replication: replicas,
		HedgeDelay: hedge, Deadline: deadline, BudgetIOs: ioBudget, DegradeToMax: degradeMax,
	}, reps)
	if err != nil {
		log.Fatal(err)
	}
	srv := cluster.NewServer(co, snapDir, ids)
	log.Printf("topk-node coordinator: problem=%s shards=%d nodes=%d R=%d on %s (snapshot %s)",
		mf.Problem, mf.Shards, len(ids), co.Config().Replication, addr, snapDir)
	log.Fatal(cluster.NewHTTPServer(addr, srv.Handler()).ListenAndServe())
}

func runNode(addr, id, fetch, dir string) {
	if fetch == "" {
		log.Fatal("node needs -fetch http://coordinator-host:port (or run with -coordinator)")
	}
	if id == "" {
		id = strings.TrimPrefix(addr, ":")
		if !strings.Contains(id, ":") {
			id = "localhost:" + id
		}
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "topk-node-*")
		if err != nil {
			log.Fatal(err)
		}
		dir = tmp
	}
	ctx := context.Background()

	// The coordinator may still be coming up; nodes retry the config
	// fetch briefly rather than making boot order matter.
	var cfg cluster.RemoteConfig
	var err error
	for attempt := 0; ; attempt++ {
		cfg, err = cluster.FetchConfig(ctx, nil, fetch)
		if err == nil {
			break
		}
		if attempt >= 120 {
			log.Fatalf("bootstrap: %v", err)
		}
		time.Sleep(250 * time.Millisecond)
	}
	owned := cfg.OwnedShards(id)
	if len(owned) == 0 {
		log.Fatalf("node %q owns no shards in a %d-shard cluster over nodes %v — is -id in the coordinator's -nodes list?", id, cfg.Shards, cfg.Nodes)
	}
	t0 := time.Now()
	if _, err := cluster.FetchShards(ctx, nil, fetch, dir, owned); err != nil {
		log.Fatalf("bootstrap: %v", err)
	}
	shards, err := cluster.LoadShards(dir, owned)
	if err != nil {
		log.Fatalf("bootstrap: %v", err)
	}
	n := cluster.NewNode(id, cfg.Problem, shards)
	items := 0
	for _, sv := range shards {
		items += sv.Len()
	}
	log.Printf("topk-node %s: problem=%s shards=%v items=%d bootstrapped in %s (files in %s) on %s",
		id, cfg.Problem, n.ShardIDs(), items, time.Since(t0).Round(time.Millisecond), filepath.Clean(dir), addr)
	log.Fatal(cluster.NewHTTPServer(addr, n.Handler()).ListenAndServe())
}
