package segment_test

import (
	"fmt"
	"testing"

	"natpeek/internal/dataset"
	"natpeek/internal/rng"
	"natpeek/internal/segment"
)

// Flush and reopen cost are natbench probes (segment.flush_rows_per_s,
// segment.open_ms); the sealed-segment scan keeps its package benchmark
// for the -cpu curve.

// BenchmarkSegmentMerge prices the sealed-segment scan alone: one Merge
// over 16 sealed, uncompacted segments of an already-open store (file
// read, NPS1 decode, output assembly). Run with -cpu 1,2 for the
// parallel-decode curve.
func BenchmarkSegmentMerge(b *testing.B) {
	const rows, segs = 160000, 16
	s, err := segment.Open(segment.Options{Dir: b.TempDir(), NoCompaction: true, FlushRows: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	r := rng.New(100)
	for i := 0; i < rows; i++ {
		id := fmt.Sprintf("bismark-%03d", r.Intn(12))
		s.Append(id, func(st *dataset.Store) {
			st.RouterCountry[id] = "US"
			addRandomRow(st, id, i, r.Child("row").ChildN("i", i))
		})
		if (i+1)%(rows/segs) == 0 {
			if err := s.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := rowsTotal(s.Merge()); got != rows {
			b.Fatalf("merged %d rows, want %d", got, rows)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
