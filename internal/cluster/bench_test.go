package cluster

import (
	"fmt"
	"testing"
	"time"

	"natpeek/internal/collector"
	"natpeek/internal/trace"
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

// BenchmarkFrontSplit prices the front's routing of one 64-item,
// many-router upload at R=2 on a 3-node ring, untraced and traced — the
// streaming split ("split") against the decode → clone → regroup →
// re-encode path it replaced ("parent", the split oracle's reference) —
// and a successor's index of the same batch both ways.
func BenchmarkFrontSplit(b *testing.B) {
	defer trace.SetEnabled(trace.Enabled())
	f := oracleFront(b, 3, 2)
	batch := oracleBatches()[3]
	for _, tracing := range []bool{false, true} {
		trace.SetEnabled(tracing)
		b.Run(fmt.Sprintf("split/traced=%v", tracing), func(b *testing.B) {
			var sp wire.Splitter
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				now := time.Now()
				if _, _, err := f.route(&sp, batch, now, now); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("parent/traced=%v", tracing), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				now := time.Now()
				items, err := decodeItems(collector.BatchEndpoint, wire.ContentTypeBinary, "", batch)
				if err != nil {
					b.Fatal(err)
				}
				referenceRoute(items, f.ms.ring(), 2, f.cfg.ID, tracing, now, now)
			}
		})
	}
	b.Run("index/split", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			indexFrame(batch)
		}
	})
	b.Run("index/parent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceIndex(batch)
		}
	})
}
