package cluster

import (
	"fmt"
	"testing"

	"natpeek/internal/wire"
)

// benchItems builds an NPB1-typed batch: `items` uptime rows spread
// across `routers` routers, with empty idempotency keys so the same
// batch re-applies every iteration (dedupe applies only to keyed
// uploads) and the first-write gate never fires.
func benchItems(routers, items int) []wire.Item {
	out := make([]wire.Item, items)
	for i := range out {
		it := uptimeItem(fmt.Sprintf("bench-rt-%03d", i%routers), i)
		it.Key = ""
		out[i] = it
	}
	return out
}

// Ring lookup and the front hop are natbench probes
// (cluster.ring_lookup_ns, cluster.front_hop_us_per_batch,
// cluster.replicate_us_per_batch); failover replay has none.

// BenchmarkHandoffReplay measures failover handoff throughput: a
// journaled NPB1 frame replayed into the successor's own data plane —
// the work a node does per frame while inheriting a dead owner's rows.
// The frame is unkeyed so every iteration pays the full apply cost
// rather than the dedupe short-circuit a second replay of the same
// frame would hit.
func BenchmarkHandoffReplay(b *testing.B) {
	const routers, items = 16, 64
	nd, err := NewNode(NodeConfig{ID: "bench-heir",
		UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
		Gossip: fastGossip})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { nd.Close() })
	e := &journalEntry{
		owner: "bench-dead-owner",
		succs: []string{nd.ID()},
		items: items,
		batch: wire.AppendBatch(nil, benchItems(routers, items)),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nd.replay(e)
		if err != nil {
			b.Fatal(err)
		}
		if res.Applied != items {
			b.Fatalf("replay applied %d of %d", res.Applied, items)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*items/b.Elapsed().Seconds(), "rows/s")
}
