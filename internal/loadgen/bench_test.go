package loadgen

import (
	"context"
	"testing"
	"time"

	"natpeek/internal/collector"
)

// BenchmarkLoadgenEndToEnd measures fleet-scale ingest over real
// sockets: synthetic routers upload through keep-alive HTTP into a live
// collector, and the run's strict accounting must come back clean. The
// BENCH_*.json trajectory tracks rows/s (end-to-end ingest throughput)
// and p99 request latency.
func BenchmarkLoadgenEndToEnd(b *testing.B) {
	srv, err := collector.NewServer("127.0.0.1:0", "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	var rows, uploads int64
	var p99 time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(context.Background(), Config{
			BaseURL:          "http://" + srv.HTTPAddr(),
			Routers:          50,
			Cycles:           2,
			PayloadsPerCycle: 4,
			BatchSize:        32,
			Workers:          8,
			Seed:             uint64(i + 1),
			skipRegister:     i > 0, // the fleet registers once
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Lost != 0 || rep.Rejected != 0 {
			b.Fatalf("benchmark run lost rows: %+v", rep)
		}
		rows += rep.Generated.Total()
		uploads += rep.Uploads
		p99 = rep.P99
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	b.ReportMetric(float64(rows)/secs, "rows/s")
	b.ReportMetric(float64(uploads)/secs, "uploads/s")
	b.ReportMetric(float64(p99.Microseconds()), "p99-µs")
}
