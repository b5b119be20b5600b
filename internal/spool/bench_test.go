package spool

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/wire"
)

// BenchmarkSpoolDrain measures the client-side upload pipeline: enqueue
// b.N payloads into the spool and drain them through a no-op sender in
// batches. This is the gateway-side throughput ceiling — how fast a
// router can hand measurements to the network layer — tracked in
// BENCH_*.json as items/s.
func BenchmarkSpoolDrain(b *testing.B) {
	var sent atomic.Int64
	sp, err := New(Config{
		KeyPrefix: "bench-router",
		Capacity:  1 << 17,
		MaxBatch:  64,
	}, func(ctx context.Context, items []Item) (Result, error) {
		sent.Add(int64(len(items)))
		return Result{}, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sp.Close()

	p := wire.Payload{Kind: wire.KindUptime, Uptime: dataset.UptimeReport{
		RouterID: "bench-router", ReportedAt: time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC), Uptime: time.Hour}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.EnqueueSpans(p, nil)
		// Keep the queue bounded: drain whenever it approaches capacity so
		// arbitrarily large b.N never hits the drop path.
		if sp.Depth() >= 1<<16 {
			if err := sp.Flush(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := sp.Flush(ctx); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if got := sent.Load(); got != int64(b.N) {
		b.Fatalf("sender saw %d items, want %d", got, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "items/s")
}
