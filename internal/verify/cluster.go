package verify

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"natpeek/internal/cluster"
	"natpeek/internal/dataset"
	"natpeek/internal/heartbeat"
	"natpeek/internal/segment"
	"natpeek/internal/world"
)

// RunCluster executes the same golden deployment as Run, but through a
// multi-node collector cluster: every client points at a front-tier
// router that consistent-hashes uploads across n collector nodes, each
// ingesting into a segment store of its own, and the ingested store is
// the merge of every node's reopened shard plus the front's heartbeat
// log. The equivalence test asserts the resulting
// snapshot is byte-identical to the single-node golden — sharding,
// routing, and replication must be invisible in the data.
func RunCluster(cfg Config, n int) (*Result, error) {
	return runCluster(cfg, n, "")
}

// RunClusterRebalance is RunCluster with a planned membership change
// fired while client traffic is in flight: op "join" grows the ring by
// one node mid-run (started with Joining so the legacy ring never
// routed to it early), op "drain" streams the last node's ownership to
// the survivors and shrinks the ring. The golden equivalence tests
// assert the merged snapshot is STILL byte-identical to the single-node
// golden — a scale event must be invisible in the data, not just
// row-conserving.
func RunClusterRebalance(cfg Config, n int, op string) (*Result, error) {
	switch op {
	case "join", "drain":
		return runCluster(cfg, n, op)
	}
	return nil, fmt.Errorf("verify: unknown rebalance op %q", op)
}

func runCluster(cfg Config, n int, op string) (*Result, error) {
	if n <= 0 {
		n = 3
	}
	w := world.Build(worldConfig(cfg))

	// Snappy gossip so membership converges well before traffic starts;
	// the run itself is failure-free, so detector timing does not shape
	// the data.
	gossip := cluster.GossipConfig{
		Interval:     25 * time.Millisecond,
		SuspectAfter: 250 * time.Millisecond,
		DeadAfter:    time.Second,
	}
	dir, err := os.MkdirTemp("", "natpeek-verify-cluster-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var nodes []*cluster.Node
	var peers []string
	var stores []*segment.Store
	defer func() {
		closeNodes(nodes)
		for _, s := range stores {
			s.Close()
		}
	}()
	total := n
	if op == "join" {
		// The joiner exists from the start but holds itself out of the
		// ring (Joining) until JoinRing commits an epoch mid-run.
		total = n + 1
	}
	for i := 0; i < total; i++ {
		ncfg := cluster.NodeConfig{
			ID:      fmt.Sprintf("verify-node-%d", i),
			UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
			Peers: append([]string(nil), peers...), Gossip: gossip,
			Joining: op == "join" && i == n,
		}
		store, err := openVerifyStore(filepath.Join(dir, ncfg.ID))
		if err != nil {
			return nil, err
		}
		stores = append(stores, store)
		ncfg.Store = store
		nd, err := cluster.NewNode(ncfg)
		if err != nil {
			return nil, fmt.Errorf("verify: cluster node %d: %w", i, err)
		}
		nodes = append(nodes, nd)
		peers = append(peers, nd.CtrlAddr())
	}
	front, err := cluster.NewFront(cluster.FrontConfig{
		ID:      "verify-front",
		UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
		Peers: peers, Gossip: gossip,
	})
	if err != nil {
		return nil, fmt.Errorf("verify: cluster front: %w", err)
	}
	defer front.Close()
	if err := waitAlive(front, total, 10*time.Second); err != nil {
		return nil, err
	}

	// Fire the membership change shortly after traffic starts, so the
	// transfer races live uploads and the fenced cutover window.
	var opCh chan error
	if op != "" {
		opCh = make(chan error, 1)
		go func() {
			time.Sleep(300 * time.Millisecond)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			switch op {
			case "join":
				opCh <- nodes[n].JoinRing(ctx)
			case "drain":
				opCh <- nodes[n-1].Drain(ctx)
			}
		}()
	}

	scanner := newPrivacyScanner(w)
	if err := runHomes(w, scanner, front.UDPAddr(), front.HTTPAddr(), front.Heartbeats()); err != nil {
		return nil, err
	}
	if opCh != nil {
		select {
		case operr := <-opCh:
			if operr != nil {
				return nil, fmt.Errorf("verify: cluster %s: %w", op, operr)
			}
		case <-time.After(3 * time.Minute):
			return nil, fmt.Errorf("verify: cluster %s did not finish", op)
		}
	}
	// Every node stops before any store closes, so no failover replay
	// can write into a shard after it has been read. Merging across
	// EVERY node (a drained node included — it must hold nothing) keeps
	// the equivalence check honest: a row left behind or applied twice
	// during the move shows up as a snapshot diff.
	closeNodes(nodes)
	shards := make([]*dataset.Store, len(stores))
	for i, store := range stores {
		if shards[i], err = reopenMerged(store, filepath.Join(dir, nodes[i].ID())); err != nil {
			return nil, err
		}
	}
	merged := mergeClusterStores(front.Heartbeats(), shards)
	return &Result{Cfg: cfg, World: w, Ingested: merged, PrivacyViolations: scanner.take()}, nil
}

// closeNodes closes every node at once: each stops its failover replay
// as its Close begins, so none outlives another long enough to judge it
// dead and replay its journal.
func closeNodes(nodes []*cluster.Node) {
	var wg sync.WaitGroup
	for _, nd := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nd.Close()
		}()
	}
	wg.Wait()
}

// waitAlive blocks until the front judges exactly n collector nodes
// alive.
func waitAlive(front *cluster.Front, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		alive := 0
		for _, mv := range front.View() {
			if mv.Role == cluster.RoleNode && mv.State == cluster.StateAlive {
				alive++
			}
		}
		if alive == n {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("verify: cluster membership did not converge to %d nodes", n)
}

// mergeClusterStores builds the cluster-wide store image: measurement
// rows of every kind concatenated across the nodes' shards (snapshot
// digests sort rows, so concatenation order cannot show through), router
// countries unioned, and the heartbeat log hb taken from the front,
// where cluster heartbeats terminate.
func mergeClusterStores(hb *heartbeat.Log, shards []*dataset.Store) *dataset.Store {
	merged := &dataset.Store{Heartbeats: hb, RouterCountry: make(map[string]string)}
	for _, st := range shards {
		for _, k := range dataset.Kinds {
			k.Append(merged, st, 0, k.Len(st))
		}
		for id, cc := range st.RouterCountry {
			merged.RouterCountry[id] = cc
		}
	}
	return merged
}
