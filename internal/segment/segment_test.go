package segment_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/rng"
	"natpeek/internal/segment"
)

var t0 = time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)

// addRandomRow appends one deterministic pseudo-random row for router id
// to st; kind selection and contents are pure functions of r.
func addRandomRow(st *dataset.Store, id string, i int, r *rng.Stream) {
	switch r.Intn(7) {
	case 0:
		st.Uptime = append(st.Uptime, dataset.UptimeReport{
			RouterID: id, ReportedAt: t0.Add(time.Duration(i) * time.Minute),
			Uptime: time.Duration(r.Intn(1e6)) * time.Second,
		})
	case 1:
		st.Capacity = append(st.Capacity, dataset.CapacityMeasure{
			RouterID: id, MeasuredAt: t0.Add(time.Duration(i) * time.Minute),
			UpBps: float64(r.Intn(1e7)), DownBps: float64(r.Intn(1e8)),
		})
	case 2:
		st.Counts = append(st.Counts, dataset.DeviceCount{
			RouterID: id, At: t0.Add(time.Duration(i) * time.Hour),
			Wired: r.Intn(4), W24: r.Intn(8), W5: r.Intn(5),
		})
	case 3:
		st.Sightings = append(st.Sightings, dataset.DeviceSighting{
			RouterID: id, At: t0.Add(time.Duration(i) * time.Hour),
			Device: mac.FromOUI(0x001CB3, uint32(r.Intn(1<<20))), Kind: dataset.ConnKind(r.Intn(3)),
		})
	case 4:
		st.WiFi = append(st.WiFi, dataset.WiFiScan{
			RouterID: id, At: t0.Add(time.Duration(i) * 10 * time.Minute),
			Band: "2.4GHz", Channel: 1 + r.Intn(11), VisibleAPs: r.Intn(20), Clients: r.Intn(6),
		})
	case 5:
		st.Flows = append(st.Flows, dataset.FlowRecord{
			RouterID: id, Device: mac.FromOUI(0x001CB3, uint32(r.Intn(1<<20))),
			Domain: "netflix.com", Proto: "tcp",
			First: t0.Add(time.Duration(i) * time.Minute), Last: t0.Add(time.Duration(i+5) * time.Minute),
			UpBytes: int64(r.Intn(1e6)), DownBytes: int64(r.Intn(1e7)),
			UpPkts: int64(r.Intn(1e3)), DownPkts: int64(r.Intn(1e4)), Conns: 1 + int64(r.Intn(9)),
		})
	default:
		st.Throughput = append(st.Throughput, dataset.ThroughputSample{
			RouterID: id, Minute: t0.Add(time.Duration(i) * time.Minute), Dir: "down",
			PeakBps: float64(r.Intn(1e8)), TotalBytes: int64(r.Intn(1e7)),
		})
	}
}

func randomStore(seed uint64, rows int) *dataset.Store {
	st := &dataset.Store{RouterCountry: make(map[string]string)}
	r := rng.New(seed)
	for i := 0; i < rows; i++ {
		id := fmt.Sprintf("bismark-%03d", r.Intn(12))
		st.RouterCountry[id] = "US"
		addRandomRow(st, id, i, r.Child("row").ChildN("i", i))
	}
	return st
}

func sameRows(t *testing.T, want, got *dataset.Store, what string) {
	t.Helper()
	if !reflect.DeepEqual(want.Uptime, got.Uptime) {
		t.Errorf("%s: uptime rows differ (%d vs %d)", what, len(want.Uptime), len(got.Uptime))
	}
	if !reflect.DeepEqual(want.Capacity, got.Capacity) {
		t.Errorf("%s: capacity rows differ", what)
	}
	if !reflect.DeepEqual(want.Counts, got.Counts) {
		t.Errorf("%s: counts rows differ", what)
	}
	if !reflect.DeepEqual(want.Sightings, got.Sightings) {
		t.Errorf("%s: sightings rows differ", what)
	}
	if !reflect.DeepEqual(want.WiFi, got.WiFi) {
		t.Errorf("%s: wifi rows differ", what)
	}
	if !reflect.DeepEqual(want.Flows, got.Flows) {
		t.Errorf("%s: flow rows differ (%d vs %d)", what, len(want.Flows), len(got.Flows))
	}
	if !reflect.DeepEqual(want.Throughput, got.Throughput) {
		t.Errorf("%s: throughput rows differ", what)
	}
	if !reflect.DeepEqual(want.RouterCountry, got.RouterCountry) {
		t.Errorf("%s: roster differs", what)
	}
}

// TestEncodingMatchesParent pins "same bytes on disk": the fuzz corpus's
// seed segment must encode to exactly what the hand-rolled encoder
// produced at the commit before NPS1 became a schema over internal/codec
// (testdata/parent_nps1.seg was written there), and that file must
// decode back to the same rows.
func TestEncodingMatchesParent(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent_nps1.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fuzzSeedVariants()[0]; !bytes.Equal(got, want) {
		t.Fatalf("NPS1 bytes changed: %d bytes, parent wrote %d", len(got), len(want))
	}
	st, keys, _, err := segment.Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, randomStore(13, 200), st, "parent bytes")
	if len(keys) != 1 || keys[0] != (segment.Key{Router: "bismark-000", Key: "seed"}) {
		t.Fatalf("parent bytes decode to keys %v", keys)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := randomStore(7, 4000)
	keys := []segment.Key{{Router: "bismark-000", Key: "k1"}, {Router: "bismark-001", Key: "k2"}}
	seq := segment.SeqRange{First: 3, Last: 5}
	repl := []segment.SeqRange{{First: 3, Last: 3}, {First: 4, Last: 5}}

	b := segment.Encode(st, keys, seq, repl)
	got, gotKeys, meta, err := segment.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, st, got, "round trip")
	if !reflect.DeepEqual(keys, gotKeys) {
		t.Errorf("keys differ: %v vs %v", keys, gotKeys)
	}
	if meta.Seq != seq || !reflect.DeepEqual(meta.Replaces, repl) {
		t.Errorf("meta seq/replaces differ: %+v", meta)
	}
	if !meta.HasTimeRange || meta.MinTime.After(meta.MaxTime) {
		t.Errorf("bad time range: %+v", meta)
	}
	if meta.Rows.Uptime != len(st.Uptime) || meta.Rows.Flows != len(st.Flows) {
		t.Errorf("footer row counts differ: %+v", meta.Rows)
	}

	// Size sanity: the columnar encoding should be several times
	// smaller than the CSV representation of the same rows.
	dir := t.TempDir()
	if err := st.Save(dir); err == nil {
		csvBytes := int64(0)
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			if fi, err := e.Info(); err == nil {
				csvBytes += fi.Size()
			}
		}
		if int64(len(b)) >= csvBytes {
			t.Errorf("segment (%d B) not smaller than CSV (%d B)", len(b), csvBytes)
		}
	}
}

func TestEncodeDecodeEdgeTimes(t *testing.T) {
	st := &dataset.Store{RouterCountry: map[string]string{}}
	// Zero times, pre-epoch times, nanosecond precision, and a non-UTC
	// zone (decodes to the same instant in UTC).
	loc := time.FixedZone("X", 5*3600+1800)
	st.Flows = []dataset.FlowRecord{
		{RouterID: "r", Proto: "tcp", First: time.Time{}, Last: time.Time{}},
		{RouterID: "r", Proto: "udp",
			First: time.Date(1969, 7, 20, 20, 17, 40, 123456789, time.UTC),
			Last:  time.Date(2013, 4, 1, 0, 0, 0, 999999999, time.UTC)},
		{RouterID: "r", Proto: "tcp",
			First: time.Date(2013, 4, 1, 12, 0, 0, 1, loc),
			Last:  time.Date(2013, 4, 1, 12, 0, 0, 2, loc)},
	}
	b := segment.Encode(st, nil, segment.SeqRange{}, nil)
	got, _, _, err := segment.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Flows[0].First.IsZero() || !got.Flows[0].Last.IsZero() {
		t.Error("zero times did not round-trip to zero")
	}
	for i := 1; i < 3; i++ {
		for _, pair := range [][2]time.Time{
			{st.Flows[i].First, got.Flows[i].First},
			{st.Flows[i].Last, got.Flows[i].Last},
		} {
			if !pair[0].Equal(pair[1]) {
				t.Errorf("flow %d: %v decoded as %v", i, pair[0], pair[1])
			}
			if pair[1].Location() != time.UTC {
				t.Errorf("flow %d decoded in %v, want UTC", i, pair[1].Location())
			}
		}
	}
}

// applySequence drives the identical serial upload sequence into any
// IngestStore.
func applySequence(s dataset.IngestStore, n int, seed uint64) {
	applyChunked(s, n, seed, nil)
}

// applyChunked is applySequence with an optional flush hook invoked
// every chunk of 1/4 of the rows — lets tests force several sealed
// segments deterministically instead of racing the background flusher.
func applyChunked(s dataset.IngestStore, n int, seed uint64, flush func()) {
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("bismark-%03d", r.Intn(12))
		s.Apply(id, fmt.Sprintf("k:%s:%d", id, i), func(st *dataset.Store) {
			st.RouterCountry[id] = "US"
			addRandomRow(st, id, i, r.Child("row").ChildN("i", i))
		})
		if flush != nil && i > 0 && i%(n/4) == 0 {
			flush()
		}
	}
}

// TestMergeMatchesSharded is the substitution contract: the same serial
// upload sequence through the segment store (forcing several flushes)
// and through the plain sharded store must merge to identical per-kind
// slices — the invariant the verify golden byte-identity rests on.
func TestMergeMatchesSharded(t *testing.T) {
	const n = 3000
	plain := dataset.NewSharded(0)
	applySequence(plain, n, 99)

	s, err := segment.Open(segment.Options{Dir: t.TempDir(), FlushRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	applyChunked(s, n, 99, func() { s.Flush() })
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Segments()); got < 2 {
		t.Fatalf("expected several sealed segments, got %d", got)
	}
	sameRows(t, plain.Merge(), s.Merge(), "segment vs sharded")

	rc, prc := s.RowCounts(), plain.RowCounts()
	if rc != prc {
		t.Errorf("RowCounts differ: %+v vs %+v", rc, prc)
	}
}

// TestMergeMatchesShardedAcrossFlushAndCompact is the seven-kind
// property on the segment side: a seeded serial upload sequence with
// seals at random points and compactions folding some of them, a live
// tail left unflushed, must merge, count and save exactly like the same
// sequence in a plain Sharded — at every boundary, not just at the end.
func TestMergeMatchesShardedAcrossFlushAndCompact(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		plain := dataset.NewSharded(0)
		s, err := segment.Open(segment.Options{Dir: t.TempDir(), FlushRows: 1 << 20, NoCompaction: true})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed)
		check := func(i int, what string) {
			t.Helper()
			what = fmt.Sprintf("seed %d, %s after row %d", seed, what, i)
			sameRows(t, plain.Merge(), s.Merge(), what)
			if rc, prc := s.RowCounts(), plain.RowCounts(); rc != prc {
				t.Errorf("%s: RowCounts %+v, want %+v", what, rc, prc)
			}
		}
		flushes, compactions := 0, 0
		for i, n := 0, 1500+r.Intn(1500); i < n; i++ {
			id := fmt.Sprintf("bismark-%03d", r.Intn(12))
			key := fmt.Sprintf("k:%s:%d", id, i)
			row := func(st *dataset.Store) {
				st.RouterCountry[id] = "US"
				addRandomRow(st, id, i, r.Child("row").ChildN("i", i))
			}
			if !plain.Apply(id, key, row) || !s.Apply(id, key, row) {
				t.Fatalf("seed %d: fresh key %d deduped", seed, i)
			}
			switch r.Intn(150) {
			case 0, 1, 2:
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				flushes++
				check(i, "flush")
			case 3:
				before := len(s.Segments())
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				if len(s.Segments()) < before {
					compactions++
				}
				check(i, "compact")
			}
		}
		if flushes < 3 || compactions < 1 {
			t.Fatalf("seed %d: %d flushes, %d compactions: the sequence crossed too few boundaries", seed, flushes, compactions)
		}
		check(-1, "the live tail")
		plainDir, segDir := t.TempDir(), t.TempDir()
		if err := plain.Merge().Save(plainDir); err != nil {
			t.Fatal(err)
		}
		if err := s.Merge().Save(segDir); err != nil {
			t.Fatal(err)
		}
		for i := range dataset.Kinds {
			name := dataset.Kinds[i].File
			want, _ := os.ReadFile(filepath.Join(plainDir, name))
			got, err := os.ReadFile(filepath.Join(segDir, name))
			if err != nil || len(want) == 0 || !bytes.Equal(want, got) {
				t.Errorf("seed %d: %s saved from segments differs from Sharded's (%v)", seed, name, err)
			}
		}
		s.Close()
	}
}

// TestDedupeAcrossFlush pins exactly-once across the rotation boundary:
// keys applied before a flush must be rejected when replayed after it.
func TestDedupeAcrossFlush(t *testing.T) {
	s, err := segment.Open(segment.Options{Dir: t.TempDir(), FlushRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	applySequence(s, 500, 5)
	before := s.RowCounts()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Replay the identical sequence: every key must dedupe.
	applySequence(s, 500, 5)
	if after := s.RowCounts(); after != before {
		t.Fatalf("replays applied across flush: %+v vs %+v", after, before)
	}
}

// TestReopenRestoresRowsAndDedupe is the restart path: all flushed rows
// reload, and replays of flushed keys are still rejected — the durable
// half of the dedupe handoff (the key block inside the segment).
func TestReopenRestoresRowsAndDedupe(t *testing.T) {
	dir := t.TempDir()
	s, err := segment.Open(segment.Options{Dir: dir, FlushRows: 200})
	if err != nil {
		t.Fatal(err)
	}
	applySequence(s, 1000, 11)
	want := s.Merge()
	if err := s.Close(); err != nil { // Close flushes the tail
		t.Fatal(err)
	}

	s2, err := segment.Open(segment.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sameRows(t, want, s2.Merge(), "reopened")
	if s2.DedupeLen() == 0 {
		t.Fatal("dedupe index empty after reopen")
	}
	before := s2.RowCounts()
	applySequence(s2, 1000, 11) // full replay
	if after := s2.RowCounts(); after != before {
		t.Fatalf("replays applied after reopen: %+v vs %+v", after, before)
	}
}

// TestKillBetweenFlushAndHandoff simulates dying the instant the
// segment rename commits, before any in-memory dedupe handoff can be
// observed: a fresh store opened on the directory must reload the rows
// and reject replays, purely from the on-disk key block.
func TestKillBetweenFlushAndHandoff(t *testing.T) {
	dir := t.TempDir()
	s, err := segment.Open(segment.Options{Dir: dir, FlushRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	applySequence(s, 400, 21)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := s.Merge()
	// Kill s; its memtable is empty (all rows flushed), so the segment
	// file is the entire durable state.
	segment.Kill(s)
	s2, err := segment.Open(segment.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sameRows(t, want, s2.Merge(), "post-kill")
	before := s2.RowCounts()
	applySequence(s2, 400, 21)
	if after := s2.RowCounts(); after != before {
		t.Fatalf("zero-duplication violated after kill: %+v vs %+v", after, before)
	}
}

// segFiles lists *.seg in dir sorted by name.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCrashTruncatedTailSegment: a tail segment torn mid-write (no
// trailer) must be quarantined on open; surviving segments reload with
// zero lost rows, and redelivery of the torn segment's uploads applies
// exactly once.
func TestCrashTruncatedTailSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := segment.Open(segment.Options{Dir: dir, FlushRows: 1 << 20, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	applySequence(s, 300, 31)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	firstHalf := s.Merge()
	r := rng.New(77)
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("extra-%02d", r.Intn(6))
		s.Apply(id, fmt.Sprintf("x:%s:%d", id, i), func(st *dataset.Store) {
			st.RouterCountry[id] = "BR"
			addRandomRow(st, id, i, r.Child("row").ChildN("i", i))
		})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	files := segFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("want 2 segments, got %v", files)
	}

	// Tear the tail: drop the last 100 bytes (trailer + footer tail).
	tail := files[1]
	b, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tail, b[:len(b)-100], 0o644); err != nil {
		t.Fatal(err)
	}

	segment.Kill(s)
	s2, err := segment.Open(segment.Options{Dir: dir, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := segFiles(t, dir); len(got) != 1 {
		t.Fatalf("torn segment not quarantined: %v", got)
	}
	if _, err := os.Stat(tail + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	sameRows(t, firstHalf, s2.Merge(), "surviving rows")

	// The torn segment's uploads redeliver (their keys died with it)
	// and apply exactly once; the surviving segment's replays dedupe.
	applySequence(s2, 300, 31) // survivors: all rejected
	r = rng.New(77)
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("extra-%02d", r.Intn(6))
		if !s2.Apply(id, fmt.Sprintf("x:%s:%d", id, i), func(st *dataset.Store) {
			st.RouterCountry[id] = "BR"
			addRandomRow(st, id, i, r.Child("row").ChildN("i", i))
		}) {
			t.Fatalf("redelivered upload %d rejected — its key should have died with the torn segment", i)
		}
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	rc := s2.RowCounts()
	total := rc.Uptime + rc.Capacity + rc.Counts + rc.Sightings + rc.WiFi + rc.Flows + rc.Throughput
	if total != 600 {
		t.Fatalf("row conservation violated: %d rows, want 600", total)
	}
}

// TestCrashTornFooter: a bit flipped inside the footer (CRC mismatch)
// quarantines the file just like a truncation.
func TestCrashTornFooter(t *testing.T) {
	dir := t.TempDir()
	s, err := segment.Open(segment.Options{Dir: dir, FlushRows: 1 << 20, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	applySequence(s, 200, 41)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files := segFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("want 1 segment, got %v", files)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-20] ^= 0xFF // inside the footer, upstream of the trailer CRC
	if err := os.WriteFile(files[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := segment.Open(segment.Options{Dir: dir, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := segFiles(t, dir); len(got) != 0 {
		t.Fatalf("torn-footer segment not quarantined: %v", got)
	}
	if rc := s2.RowCounts(); rc.Uptime+rc.Flows+rc.Throughput+rc.Capacity+rc.Counts+rc.Sightings+rc.WiFi != 0 {
		t.Fatalf("rows from a corrupt segment: %+v", rc)
	}
	// All uploads redeliver and apply exactly once.
	applySequence(s2, 200, 41)
	rc := s2.RowCounts()
	if total := rc.Uptime + rc.Capacity + rc.Counts + rc.Sightings + rc.WiFi + rc.Flows + rc.Throughput; total != 200 {
		t.Fatalf("redelivery after quarantine: %d rows, want 200", total)
	}
}

// TestCrashTmpLeftover: an interrupted commit's .tmp file is removed at
// open and never loaded.
func TestCrashTmpLeftover(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "00000000000000ff-00000000000000ff.seg.tmp")
	if err := os.WriteFile(tmp, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := segment.Open(segment.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("tmp file survived open: %v", err)
	}
}

// TestCompactionPreservesOrderAndHealsCrash: compacting adjacent
// segments preserves the merged view byte-for-byte, and a crash between
// the compacted segment's rename and the input deletion (both files
// present at open) resolves to exactly one copy of every row.
func TestCompactionPreservesOrderAndHealsCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := segment.Open(segment.Options{Dir: dir, FlushRows: 150, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	applyChunked(s, 1000, 51, func() { s.Flush() })
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := s.Merge()
	inputs := segFiles(t, dir)
	if len(inputs) < 3 {
		t.Fatalf("want >=3 segments before compaction, got %v", inputs)
	}
	// Stash the inputs to resurrect them afterwards (simulating the
	// crash window where deletion never ran).
	stash := make(map[string][]byte)
	for _, p := range inputs {
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
	if len(after) >= len(inputs) {
		t.Fatalf("compaction did not reduce segments: %v -> %v", inputs, after)
	}
	sameRows(t, want, s.Merge(), "post-compaction merge")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash simulation: the replaced inputs reappear next to the
	// compacted segment.
	for p, b := range stash {
		if _, err := os.Stat(p); os.IsNotExist(err) {
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	s2, err := segment.Open(segment.Options{Dir: dir, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sameRows(t, want, s2.Merge(), "post-crash-heal merge")
	// The superseded inputs must be gone from disk again.
	if got := segFiles(t, dir); len(got) != len(after) {
		t.Fatalf("supersession did not delete covered inputs: %v", got)
	}
}

// TestSubscribeReplaysAndFollows: a subscriber sees every sealed chunk
// exactly once — existing segments at subscription, then future seals.
func TestSubscribeReplaysAndFollows(t *testing.T) {
	dir := t.TempDir()
	s, err := segment.Open(segment.Options{Dir: dir, FlushRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	applySequence(s, 100, 61)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	rows := 0
	chunks := 0
	if err := s.Subscribe(func(chunk *dataset.Store) {
		chunks++
		rows += len(chunk.Uptime) + len(chunk.Capacity) + len(chunk.Counts) +
			len(chunk.Sightings) + len(chunk.WiFi) + len(chunk.Flows) + len(chunk.Throughput)
	}); err != nil {
		t.Fatal(err)
	}
	if chunks != 1 || rows != 100 {
		t.Fatalf("replay saw %d chunks / %d rows, want 1/100", chunks, rows)
	}

	r := rng.New(88)
	for i := 0; i < 50; i++ {
		id := "late-0"
		s.Apply(id, fmt.Sprintf("late:%d", i), func(st *dataset.Store) {
			st.RouterCountry[id] = "US"
			addRandomRow(st, id, i, r.ChildN("i", i))
		})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if chunks != 2 || rows != 150 {
		t.Fatalf("after second seal: %d chunks / %d rows, want 2/150", chunks, rows)
	}
}

// TestAgeFlush: a small, old memtable reaches disk via FlushAge without
// any explicit Flush.
func TestAgeFlush(t *testing.T) {
	dir := t.TempDir()
	s, err := segment.Open(segment.Options{Dir: dir, FlushRows: 1 << 20, FlushAge: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Append("r1", func(st *dataset.Store) {
		st.Uptime = append(st.Uptime, dataset.UptimeReport{RouterID: "r1", ReportedAt: t0})
	})
	deadline := time.Now().Add(5 * time.Second)
	for len(s.Segments()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("age-based flush never sealed the memtable")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOpenRejectsMissingDir pins the Options validation.
func TestOpenRejectsMissingDir(t *testing.T) {
	if _, err := segment.Open(segment.Options{}); err == nil ||
		!strings.Contains(err.Error(), "Dir required") {
		t.Fatalf("err = %v", err)
	}
}

// TestOpenLocksDir: a second store on a directory that an open store
// holds fails to open rather than flushing and compacting over the
// first one's segments; once the first closes, the directory opens.
func TestOpenLocksDir(t *testing.T) {
	dir := t.TempDir()
	s, err := segment.Open(segment.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	applySequence(s, 50, 3)
	if s2, err := segment.Open(segment.Options{Dir: dir}); err == nil {
		s2.Close()
		t.Fatal("a second store opened a directory the first still holds")
	}
	want := s.Merge()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := segment.Open(segment.Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	defer s2.Close()
	sameRows(t, want, s2.Merge(), "reopened")
}
