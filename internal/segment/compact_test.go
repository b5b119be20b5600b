package segment_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
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

// TestCompactionAllocBudget: one pass over eight tier-0 segments
// allocates at most twice the bytes of its input files and its output
// file together — it reads each input once and writes the output once,
// and decodes no row in between. A third of the flow rows carry a
// one-off domain, as anonymised hashes do, so the flow dictionary is
// large.
func TestCompactionAllocBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := segment.Open(segment.Options{Dir: dir, FlushRows: 1 << 30, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		chunk := randomStore(uint64(300+i), 4096)
		for j := range chunk.Flows {
			if j%3 == 0 {
				chunk.Flows[j].Domain = fmt.Sprintf("h%d-%d.example", i, j)
			}
		}
		sealChunk(t, s, chunk, uint64(300+i))
	}
	before := fileSizes(t, dir)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	after := fileSizes(t, dir)
	if len(after) != 1 {
		t.Fatalf("%d segments after the pass, want 1", len(after))
	}
	in, out := newBytes(nil, before), newBytes(before, after)
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("pass allocated %d bytes: inputs %d, output %d", alloc, in, out)
	if alloc > 2*(in+out) {
		t.Fatalf("pass allocated %d bytes, more than twice its %d input and %d output bytes", alloc, in, out)
	}
}

// TestCompactCorruptInput: an input whose block holds a dictionary
// reference past its dictionary, under a CRC that matches, fails the
// pass with a corrupt-data error that names the file, and the pass
// leaves the directory and the segment list as they were.
func TestCompactCorruptInput(t *testing.T) {
	dir := t.TempDir()
	s, err := segment.Open(segment.Options{Dir: dir, FlushRows: 1 << 30, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		chunk := dataset.NewStore()
		for j := 0; j < 4; j++ {
			chunk.Uptime = append(chunk.Uptime, dataset.UptimeReport{RouterID: "r1", ReportedAt: t0.Add(time.Duration(j) * time.Minute)})
		}
		sealChunk(t, s, chunk, uint64(i))
	}
	files := segFiles(t, dir)
	victim := files[3]
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	// The uptime block comes first: its router column is the literal
	// 0 | len 2 | "r1", then one reference per further row. Point the
	// second row's reference at entry 5 of a one-entry dictionary.
	bad, err := segment.Reseal(b, func(blocks []byte) { blocks[4] = 6 })
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := segment.Decode(bad); err == nil || !strings.Contains(err.Error(), "beyond dictionary") {
		t.Fatalf("the edited segment decodes with %v, want a reference beyond the dictionary", err)
	}
	if err := os.WriteFile(victim, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	list, names := s.Segments(), dirNames(t, dir)

	err = s.Compact()
	if !errors.Is(err, segment.ErrCorrupt) || !strings.Contains(err.Error(), filepath.Base(victim)) {
		t.Fatalf("Compact() = %v, want a corrupt-data error naming %s", err, filepath.Base(victim))
	}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, names) {
		t.Fatalf("the failed pass left %v in the directory, it held %v", got, names)
	}
	if !reflect.DeepEqual(s.Segments(), list) {
		t.Fatal("the failed pass changed the segment list")
	}
}

// dirNames lists every file in dir, .tmp and LOCK included.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

// TestQuarantineCounted: Open renames a torn segment to .seg.corrupt and
// counts it in natpeek_segment_quarantined_total; the intact one loads.
func TestQuarantineCounted(t *testing.T) {
	quarantined := telemetry.Default.Counter("natpeek_segment_quarantined_total", "")
	dir := t.TempDir()
	s, err := segment.Open(segment.Options{Dir: dir, FlushRows: 1 << 30, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	sealChunk(t, s, randomStore(1, 100), 1)
	sealChunk(t, s, randomStore(2, 100), 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files := segFiles(t, dir)
	b, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[1], b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	q0 := quarantined.Value()
	s2, err := segment.Open(segment.Options{Dir: dir, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := quarantined.Value() - q0; got != 1 {
		t.Fatalf("quarantined counter moved by %d, want 1", got)
	}
	if _, err := os.Stat(files[1] + ".corrupt"); err != nil {
		t.Fatalf("the torn segment was not quarantined: %v", err)
	}
	if n := len(s2.Segments()); n != 1 {
		t.Fatalf("%d segments loaded, want the intact one", n)
	}
}
