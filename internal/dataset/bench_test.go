package dataset

import (
	"fmt"
	"testing"
	"time"
)

// The store-append, dedupe-mark and sharded-merge benchmarks that used
// to live here are natbench per-layer probes now (dataset.apply_ns_per_row,
// dataset.apply_scaling_p2, dataset.dedupe_mark_ns, dataset.merge_rows_per_s
// in BENCHMARK.json). CSV save is the one store cost no probe covers.

func BenchmarkStoreSave(b *testing.B) {
	s := NewSharded(0)
	t0 := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	for r := 0; r < 200; r++ {
		id := fmt.Sprintf("save-router-%03d", r)
		s.Append(id, func(st *Store) {
			st.RouterCountry[id] = "US"
			for i := 0; i < 50; i++ {
				st.Uptime = append(st.Uptime, UptimeReport{RouterID: id, ReportedAt: t0, Uptime: time.Duration(i) * time.Second})
				st.Throughput = append(st.Throughput, ThroughputSample{RouterID: id, Minute: t0, Dir: "up", PeakBps: 1e6, TotalBytes: 1 << 20})
				st.Flows = append(st.Flows, FlowRecord{RouterID: id, Proto: "tcp", First: t0, Last: t0, UpBytes: 1000, DownBytes: 9000, UpPkts: 10, DownPkts: 70, Conns: 1})
			}
		})
	}
	m := s.Merge()
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Save(dir); err != nil {
			b.Fatal(err)
		}
	}
	rows := len(m.Uptime) + len(m.Throughput) + len(m.Flows)
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
