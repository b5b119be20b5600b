package segment_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/segment"
	"natpeek/internal/telemetry"
)

// replayBytes seals segs segments of rows throughput rows each, reopens
// the directory and returns the bytes one Subscribe replay of it
// allocates, checking that every row reached the subscriber.
func replayBytes(t *testing.T, segs, rows int) uint64 {
	t.Helper()
	opt := segment.Options{Dir: t.TempDir(), FlushRows: 1 << 30, NoCompaction: true}
	s, err := segment.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < segs; i++ {
		s.Append("r", func(dst *dataset.Store) {
			dst.RouterCountry["bismark-001"] = "US"
			for j := 0; j < rows; j++ {
				dst.Throughput = append(dst.Throughput, dataset.ThroughputSample{RouterID: "bismark-001",
					Minute: t0.Add(time.Duration(i*rows+j) * time.Minute), Dir: "down", PeakBps: float64(j), TotalBytes: int64(j)})
			}
		})
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = segment.Open(opt); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = s.Subscribe(func(c *dataset.Store) { got += len(c.Throughput) })
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got != segs*rows {
		t.Fatalf("replayed %d rows of %d", got, segs*rows)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestReplayRecyclesWindows: a replay decodes each segment into a window
// an earlier segment's subscriber call has finished with, so sixteen
// equal segments cost a few windows, not sixteen.
func TestReplayRecyclesWindows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const rows = 20000
	one, many := replayBytes(t, 1, rows), replayBytes(t, 16, rows)
	if many >= 4*one {
		t.Errorf("replay of 16 segments allocated %d bytes, %.1f× one segment's %d; want under 4×",
			many, float64(many)/float64(one), one)
	}
}

// unevenChunk is segment i's rows: each kind's count climbs, drops to
// zero and climbs again across segments, out of step with the others,
// so a recycled window both grows and shrinks, kind by kind, and is
// sometimes emptied.
func unevenChunk(i int) *dataset.Store {
	counts := []int{40, 900, 1500, 0, 0, 300, 2500, 7, 0, 1200}
	full := randomStore(uint64(1000+i), 7*2500)
	out := &dataset.Store{RouterCountry: full.RouterCountry}
	for k, kind := range dataset.Kinds {
		kind.Window(out, full, 0, min(counts[(i+3*k)%len(counts)], kind.Len(full)))
	}
	return out
}

// TestReplayMatchesMergeAcrossUnevenSegments: with windows recycled over
// segments whose per-kind row counts rise, fall to zero and rise again,
// every replayed chunk still equals its own file's decode — no row or
// roster entry left over from the segment its window held before — and
// the chunks laid end to end equal Merge. Each replay is one
// observation of natpeek_segment_replay_seconds and moves
// natpeek_segment_replay_rows_total by the rows it handed over.
func TestReplayMatchesMergeAcrossUnevenSegments(t *testing.T) {
	replays := telemetry.Default.Histogram("natpeek_segment_replay_seconds", "", nil)
	replayed := telemetry.Default.Counter("natpeek_segment_replay_rows_total", "")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	dir := t.TempDir()
	s, err := segment.Open(segment.Options{Dir: dir, FlushRows: 1 << 30, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 14; i++ {
		if i == 9 { // a segment with a roster and no rows at all
			s.Append("meta", func(dst *dataset.Store) { dst.RouterCountry["idle"] = "BR" })
		} else {
			chunk := unevenChunk(i)
			s.Append("chunk", func(dst *dataset.Store) { appendRows(dst, chunk) })
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	files := segFiles(t, dir)
	var want []*dataset.Store
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		st, _, _, err := segment.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, st)
	}
	merged := s.Merge()
	for _, workers := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(workers)
		all := &dataset.Store{RouterCountry: map[string]string{}}
		var got []*dataset.Store
		n0, r0 := replays.Count(), replayed.Value()
		if err := s.Subscribe(func(c *dataset.Store) {
			own := &dataset.Store{RouterCountry: map[string]string{}}
			appendRows(own, c)
			got = append(got, own)
			appendRows(all, c)
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d workers: replayed %d chunks of %d segments", workers, len(got), len(want))
		}
		for i := range want {
			sameRows(t, want[i], got[i], fmt.Sprintf("%d workers, chunk %d", workers, i))
		}
		sameRows(t, merged, all, fmt.Sprintf("%d workers, chunks end to end", workers))
		rc := dataset.CountRows(all)
		if n, r := replays.Count()-n0, replayed.Value()-r0; n != 1 || r != uint64(rc.Total()) {
			t.Errorf("%d workers: replay observed %d times and counted %d rows, want once and %d", workers, n, r, rc.Total())
		}
	}
}
