package segment_test

import (
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/segment"
	"natpeek/internal/telemetry"
)

// sealChunk applies chunk as one upload (key chunk-<seed>) and flushes
// it into a segment of its own. The upload is one Apply, so a background
// flush racing this one seals it whole or not at all.
func sealChunk(t *testing.T, s *segment.Store, chunk *dataset.Store, seed uint64) {
	t.Helper()
	if !s.Apply("chunk", fmt.Sprintf("chunk-%d", seed), func(dst *dataset.Store) { appendRows(dst, chunk) }) {
		t.Fatalf("chunk %d deduped", seed)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionRewritesPerTier: 256 equal flushes, each followed by a
// Compact() as a caller settling the store between phases makes. A row is
// rewritten once per size tier it climbs, not once per pass: at most
// ⌈log4 256⌉ + 1 times on average. The store keeps at most
// DefaultCompactAt tier-0 segments plus three per higher tier — also when
// consecutive flushes alternate between two disjoint time windows, as a
// backfill beside live uploads does.
func TestCompactionRewritesPerTier(t *testing.T) {
	const (
		flushRows, flushes = 32, 256
		tiers              = 5 // 256 flushes = 4^4 flushes: tiers 0..4
	)
	rewritten := telemetry.Default.Counter("natpeek_segment_compacted_rows_total", "")
	for _, windows := range []int{1, 2} {
		s, err := segment.Open(segment.Options{Dir: t.TempDir(), FlushRows: flushRows})
		if err != nil {
			t.Fatal(err)
		}
		r0, peak := rewritten.Value(), 0
		for i := 0; i < flushes; i++ {
			chunk := dataset.NewStore()
			at := t0.AddDate(i%windows, 0, 0)
			for j := 0; j < flushRows; j++ {
				chunk.Uptime = append(chunk.Uptime, dataset.UptimeReport{RouterID: "r1", ReportedAt: at.Add(time.Duration(j) * time.Minute)})
			}
			sealChunk(t, s, chunk, uint64(i))
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			peak = max(peak, len(s.Segments()))
			if most := segment.DefaultCompactAt + 3*(tiers-1); peak > most {
				t.Fatalf("%d time windows, after flush %d: %d segments live, want at most %d", windows, i, peak, most)
			}
		}
		stored := s.RowCounts().Total()
		if stored != flushes*flushRows {
			t.Fatalf("%d time windows: %d rows stored, want %d", windows, stored, flushes*flushRows)
		}
		per := float64(rewritten.Value()-r0) / float64(stored)
		t.Logf("%d time windows: compaction rewrote %.2f rows per row stored; at most %d segments live", windows, per, peak)
		if per > tiers {
			t.Fatalf("%d time windows: compaction rewrote %.2f rows per row stored, want at most %d", windows, per, tiers)
		}
		s.Close()
	}
}

// TestFlushPassWaitsForSmallSegments: the pass after a flush counts
// tier-0 segments only. Four tier-1 segments — a run any pass would
// merge — and up to DefaultCompactAt tier-0 ones stay as they are; the
// flush that makes one tier-0 segment more starts a pass.
func TestFlushPassWaitsForSmallSegments(t *testing.T) {
	const flushRows = 32
	s, err := segment.Open(segment.Options{Dir: t.TempDir(), FlushRows: flushRows})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		sealChunk(t, s, randomStore(uint64(i), 4*flushRows), uint64(i))
	}
	for i := 0; i < segment.DefaultCompactAt; i++ {
		sealChunk(t, s, randomStore(uint64(100+i), flushRows), uint64(100+i))
		if n := len(s.Segments()); n != 4+i+1 {
			t.Fatalf("after %d small flushes: %d segments live, want %d — a pass ran", i+1, n, 4+i+1)
		}
	}
	sealChunk(t, s, randomStore(200, flushRows), 200)
	if n := len(s.Segments()); n >= 4+segment.DefaultCompactAt+1 {
		t.Fatalf("%d segments live: no pass after the flush that made %d small segments", n, segment.DefaultCompactAt+1)
	}
}

// TestCompactionHealsCrashMidList: a crash between a compaction's rename
// and its input deletion, in a tier-0 run that does not start at the
// oldest segment. The inputs reappear next to the output; reopening
// supersedes and deletes them, merges the same rows, and still rejects
// every upload it holds.
func TestCompactionHealsCrashMidList(t *testing.T) {
	const flushRows = 32
	dir := t.TempDir()
	s, err := segment.Open(segment.Options{Dir: dir, FlushRows: flushRows, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	sealChunk(t, s, randomStore(0, 4*flushRows), 0) // tier 1, the oldest
	for i := 1; i <= 4; i++ {
		sealChunk(t, s, randomStore(uint64(i), flushRows), uint64(i))
	}
	want := s.Merge()
	before := segFiles(t, dir)
	stash := make(map[string][]byte)
	for _, p := range before[1:] {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		stash[p] = b
	}

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := segFiles(t, dir)
	if len(after) != 2 || after[0] != before[0] {
		t.Fatalf("compaction of the tier-0 run: %v -> %v, want the oldest segment and one merged", before, after)
	}
	sameRows(t, want, s.Merge(), "post-compaction merge")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for p, b := range stash {
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := segment.Open(segment.Options{Dir: dir, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := segFiles(t, dir); !reflect.DeepEqual(got, after) {
		t.Fatalf("supersession left %v, want %v", got, after)
	}
	sameRows(t, want, s2.Merge(), "post-crash-heal merge")
	for i := 0; i <= 4; i++ {
		if s2.Apply("chunk", fmt.Sprintf("chunk-%d", i), func(*dataset.Store) {}) {
			t.Fatalf("upload chunk-%d applied again after the heal", i)
		}
	}
}
