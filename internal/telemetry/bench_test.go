package telemetry_test

import (
	"testing"

	"natpeek/internal/telemetry"
)

// The capture hot path pays one counter increment and one counter add per
// frame (see capture.Monitor.Process). These benches gate that cost: a
// counter increment must stay below ~25 ns/op or per-packet
// instrumentation would distort the very measurements it reports.

func BenchmarkTelemetryCounterInc(b *testing.B) {
	c := telemetry.Default.Counter("bench_counter_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkTelemetryCounterIncParallel(b *testing.B) {
	c := telemetry.Default.Counter("bench_counter_par_total", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkTelemetryGaugeSet(b *testing.B) {
	g := telemetry.Default.Gauge("bench_gauge", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkTelemetryHistogramObserve(b *testing.B) {
	h := telemetry.Default.Histogram("bench_hist_seconds", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.003)
	}
}
