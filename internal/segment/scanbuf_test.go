package segment

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"natpeek/internal/dataset"
)

// TestScanReusesFileBuffers: a scan reads each file into a buffer a
// previous file has finished with, so segments of one size take at most
// one buffer per worker and the one being emitted, however many there
// are.
func TestScanReusesFileBuffers(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), FlushRows: 1 << 30, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	at := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	const segs, workers = 12, 2
	for i := 0; i < segs; i++ {
		s.Append("r", func(dst *dataset.Store) {
			for j := 0; j < 500; j++ {
				dst.Throughput = append(dst.Throughput, dataset.ThroughputSample{RouterID: fmt.Sprintf("r%d", j%7),
					Minute: at.Add(time.Duration(j) * time.Minute), Dir: "up", PeakBps: float64(j)})
			}
		})
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	files, _, _, _ := s.view()
	if len(files) != segs {
		t.Fatalf("%d segments, want %d", len(files), segs)
	}
	bufs := map[*byte]bool{}
	rows := 0
	_, err = scan(files, workers, func(i int) *dataset.Store { return newWindow(files[i].meta.Rows, dataset.RowCounts{}) },
		func(_ int, r *Reader, w *dataset.Store) error {
			bufs[unsafe.SliceData(r.buf)] = true
			rows += len(w.Throughput)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if rows != segs*500 {
		t.Fatalf("scanned %d rows, want %d", rows, segs*500)
	}
	if len(bufs) > workers+1 {
		t.Errorf("%d segments of one size read into %d buffers, want at most %d", segs, len(bufs), workers+1)
	}
}
