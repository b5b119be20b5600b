package cluster

import (
	"context"
	"testing"
	"time"

	"natpeek/internal/loadgen"
)

// TestChaosSoakKillRejoin is the cluster's headline correctness proof:
// a three-node cluster takes a full loadgen soak through the front
// while one node is crash-killed mid-run and later rejoins (same ID,
// fresh incarnation, empty store). The oracle is loadgen's strict
// accounting — every generated row counted at generation time against
// the cluster-wide stats delta — plus an independent sum over the live
// nodes' stores. Zero lost AND zero duplicated rows, because a lost
// row undershoots the generated total and a double-applied row
// overshoots it, and the totals must be exactly equal.
//
// Everything the failure throws at the pipeline is absorbed by the
// same two properties the design leans on: at-least-once client
// retries (transport errors and 502/503 during the blind window where
// the front still routes to the corpse) and idempotent application
// (journal replays, post-rejoin retries). `make check-cluster` runs
// this under -race at full size; -short keeps it in CI budget.
func TestChaosSoakKillRejoin(t *testing.T) {
	routers, cycles := 48, 10
	if testing.Short() {
		routers, cycles = 16, 6
	}
	tc := startTestCluster(t, 3, 2)

	cfg := loadgen.Config{
		BaseURL:        frontURL(tc),
		Routers:        routers,
		Cycles:         cycles,
		Interval:       50 * time.Millisecond,
		Ramp:           200 * time.Millisecond,
		DirectFraction: 0.1,
		Workers:        6,
		Seed:           1,
	}
	type outcome struct {
		rep *loadgen.Report
		err error
	}
	done := make(chan outcome, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	go func() {
		rep, err := loadgen.Run(ctx, cfg)
		done <- outcome{rep, err}
	}()

	// Let traffic land on the victim first, then crash it.
	victim := tc.nodes[1]
	waitFor(t, 15*time.Second, "victim to own some rows", func() bool {
		st := victim.Store()
		return len(st.Uptime)+len(st.Capacity)+len(st.Counts)+len(st.Sightings)+
			len(st.WiFi)+len(st.Flows)+len(st.Throughput) > 0
	})
	if err := victim.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	t.Logf("killed %s mid-run", victim.ID())

	// Wait for the failure detector to notice, then rejoin under the
	// same ring identity with fresh ephemeral addresses — the classic
	// replace-the-box operation.
	tc.waitAliveNodes(2)
	reborn, err := NewNode(NodeConfig{
		ID:      victim.ID(),
		UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
		Peers:  []string{tc.nodes[0].CtrlAddr(), tc.nodes[2].CtrlAddr()},
		Gossip: fastGossip,
	})
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	tc.nodes[1] = reborn // cleanup closes the reborn node; the victim is already dead
	tc.waitAliveNodes(3)
	t.Logf("%s rejoined", reborn.ID())

	out := <-done
	if out.err != nil {
		t.Fatalf("loadgen run: %v", out.err)
	}
	rep := out.rep
	if rep.Direct == 0 {
		t.Fatal("soak posted no direct uploads")
	}
	t.Logf("soak: %d rows generated, %d requests, %d retries, lost=%d",
		rep.Generated.Total(), rep.Requests, rep.Retries, rep.Lost)

	// Journal replays race the end of the run, so the authoritative
	// check is convergence: the live stores must reach exactly the
	// generated row counts and then stay there.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) && clusterRows(tc) != rep.Generated {
		time.Sleep(20 * time.Millisecond)
	}
	if got := clusterRows(tc); got != rep.Generated {
		t.Fatalf("cluster stores did not converge:\n got %+v\nwant %+v", got, rep.Generated)
	}
	time.Sleep(10 * fastGossip.Interval)
	if got := clusterRows(tc); got != rep.Generated {
		t.Fatalf("cluster rows diverged after settling:\n got %+v\nwant %+v", got, rep.Generated)
	}
	// Loadgen's own before/after stats oracle usually agrees already;
	// a positive Lost here only means its final stats fetch beat the
	// last journal replay, which the convergence wait above covers.
	// What it must never show is negative loss — that is a duplicated
	// row no replay can explain.
	if rep.Lost < 0 {
		t.Fatalf("negative lost rows (%d): duplicated rows in cluster stats", rep.Lost)
	}
	// Retries of every acked key must flatten to duplicates, even for
	// keys whose owner died and whose rows now live on a successor.
	if rep.Retries == 0 {
		t.Log("soak note: run saw no retries; kill window may not have overlapped traffic")
	}
}

// clusterRows sums per-dataset row counts across the live nodes'
// stores, shaped as loadgen.Rows for direct comparison with a report.
func clusterRows(tc *testCluster) loadgen.Rows {
	var r loadgen.Rows
	for _, nd := range tc.nodes {
		st := nd.Store()
		r.Uptime += int64(len(st.Uptime))
		r.Capacity += int64(len(st.Capacity))
		r.Counts += int64(len(st.Counts))
		r.Sightings += int64(len(st.Sightings))
		r.WiFi += int64(len(st.WiFi))
		r.Flows += int64(len(st.Flows))
		r.Throughput += int64(len(st.Throughput))
	}
	return r
}
