package segment_test

import (
	"fmt"
	"testing"

	"natpeek/internal/dataset"
	"natpeek/internal/rng"
	"natpeek/internal/segment"
)

// BenchmarkSegmentFlush prices the full durability path: ingest a batch
// of rows into the memtable, then seal it into an encoded, CRC'd,
// fsync'd segment file. rows/s here is the sustained rate at which a
// collector can push ingest to disk.
func BenchmarkSegmentFlush(b *testing.B) {
	const rows = 5000
	s, err := segment.Open(segment.Options{Dir: b.TempDir(), NoCompaction: true, FlushRows: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(i))
		for j := 0; j < rows; j++ {
			id := fmt.Sprintf("bismark-%03d", r.Intn(12))
			s.Apply(id, fmt.Sprintf("k:%d:%d", i, j), func(st *dataset.Store) {
				st.RouterCountry[id] = "US"
				addRandomRow(st, id, j, r.Child("row").ChildN("i", j))
			})
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkSegmentReopen prices crash recovery / analysis startup:
// opening a directory of sealed segments and merging them into one
// analysis-ready store.
func BenchmarkSegmentReopen(b *testing.B) {
	dir := b.TempDir()
	s, err := segment.Open(segment.Options{Dir: dir, NoCompaction: true, FlushRows: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	const rows = 20000
	applyChunked(s, rows, 99, func() {
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	})
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := segment.Open(segment.Options{Dir: dir, NoCompaction: true})
		if err != nil {
			b.Fatal(err)
		}
		re.Merge()
		if err := re.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

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
