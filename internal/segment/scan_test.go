package segment_test

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/rng"
	"natpeek/internal/segment"
)

// decodeConcat is the scanner's reference: every segment file in dir
// decoded on its own and appended in name (= seq) order, skipping paths
// in skip.
func decodeConcat(t *testing.T, dir string, skip ...string) *dataset.Store {
	t.Helper()
	out := &dataset.Store{RouterCountry: make(map[string]string)}
files:
	for _, p := range segFiles(t, dir) {
		for _, s := range skip {
			if p == s {
				continue files
			}
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		st, _, _, err := segment.Decode(b)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		appendRows(out, st)
	}
	return out
}

func appendRows(dst, src *dataset.Store) {
	dst.Uptime = append(dst.Uptime, src.Uptime...)
	dst.Capacity = append(dst.Capacity, src.Capacity...)
	dst.Counts = append(dst.Counts, src.Counts...)
	dst.Sightings = append(dst.Sightings, src.Sightings...)
	dst.WiFi = append(dst.WiFi, src.WiFi...)
	dst.Flows = append(dst.Flows, src.Flows...)
	dst.Throughput = append(dst.Throughput, src.Throughput...)
	for id, cc := range src.RouterCountry {
		dst.RouterCountry[id] = cc
	}
}

// replay collects a fresh subscription's replay into one store. (The
// subscription stays registered; no test seals anything after it.)
func replay(t *testing.T, s *segment.Store) *dataset.Store {
	t.Helper()
	out := &dataset.Store{RouterCountry: make(map[string]string)}
	if err := s.Subscribe(func(chunk *dataset.Store) { appendRows(out, chunk) }); err != nil {
		t.Error(err) // not Fatal: readers call this off the test goroutine
	}
	return out
}

// zeroSomeTimes blanks timestamps at the positions the cursor walk in
// decodeTimes has to get right: first row, last row, an adjacent pair.
func zeroSomeTimes(st *dataset.Store, r *rng.Stream) {
	pick := func(n int) []int {
		if n == 0 {
			return nil
		}
		var at []int
		if r.Intn(2) == 0 {
			at = append(at, 0)
		}
		if r.Intn(2) == 0 {
			at = append(at, n-1)
		}
		if n > 2 && r.Intn(2) == 0 {
			i := r.Intn(n - 1)
			at = append(at, i, i+1)
		}
		return at
	}
	for _, i := range pick(len(st.Uptime)) {
		st.Uptime[i].ReportedAt = time.Time{}
	}
	for _, i := range pick(len(st.Counts)) {
		st.Counts[i].At = time.Time{}
	}
	for _, i := range pick(len(st.Flows)) {
		st.Flows[i].First = time.Time{}
	}
	for _, i := range pick(len(st.Flows)) {
		st.Flows[i].Last = time.Time{}
	}
	for _, i := range pick(len(st.Throughput)) {
		st.Throughput[i].Minute = time.Time{}
	}
}

// sealRandomStore fills dir with a random store cut at random flush
// boundaries: chunks that leave whole row kinds empty, zero-time rows at
// block edges, a roster-only segment, and a compacted segment in among
// flushed ones.
func sealRandomStore(t *testing.T, s *segment.Store, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	flush := func() {
		t.Helper()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	chunks := 3 + r.Intn(6)
	metaOnly, compactAfter := r.Intn(chunks), 1+r.Intn(chunks-1)
	for c := 0; c < chunks; c++ {
		chunk := randomStore(seed*100+uint64(c), r.Intn(400))
		switch r.Intn(4) { // leave kinds out of some chunks altogether
		case 0:
			chunk.Flows, chunk.WiFi = nil, nil
		case 1:
			chunk.Uptime, chunk.Capacity, chunk.Counts, chunk.Sightings = nil, nil, nil, nil
		}
		zeroSomeTimes(chunk, r.ChildN("zero", c))
		if c == metaOnly {
			s.Append("meta", func(dst *dataset.Store) { dst.RouterCountry[fmt.Sprintf("idle-%d", c)] = "BR" })
			flush()
		}
		s.Append("chunk", func(dst *dataset.Store) { appendRows(dst, chunk) })
		flush()
		if c == compactAfter {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestScanMatchesPerFileDecode is the scanner's property: whatever the
// segment layout and the worker count, Merge and a subscription replay
// equal the per-file decodes laid end to end.
func TestScanMatchesPerFileDecode(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for seed := uint64(1); seed <= 12; seed++ {
		dir := t.TempDir()
		s, err := segment.Open(segment.Options{Dir: dir, FlushRows: 1 << 30, NoCompaction: true})
		if err != nil {
			t.Fatal(err)
		}
		sealRandomStore(t, s, seed)
		want := decodeConcat(t, dir)
		for _, workers := range []int{1, 4} {
			runtime.GOMAXPROCS(workers)
			what := fmt.Sprintf("seed %d, %d workers", seed, workers)
			sameRows(t, want, s.Merge(), what+": merge")
			sameRows(t, want, replay(t, s), what+": replay")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// byRouter splits a store's rows per router, order kept.
func byRouter(st *dataset.Store) map[string]*dataset.Store {
	out := map[string]*dataset.Store{}
	of := func(id string) *dataset.Store {
		if out[id] == nil {
			out[id] = &dataset.Store{}
		}
		return out[id]
	}
	for _, r := range st.Uptime {
		of(r.RouterID).Uptime = append(of(r.RouterID).Uptime, r)
	}
	for _, r := range st.Capacity {
		of(r.RouterID).Capacity = append(of(r.RouterID).Capacity, r)
	}
	for _, r := range st.Counts {
		of(r.RouterID).Counts = append(of(r.RouterID).Counts, r)
	}
	for _, r := range st.Sightings {
		of(r.RouterID).Sightings = append(of(r.RouterID).Sightings, r)
	}
	for _, r := range st.WiFi {
		of(r.RouterID).WiFi = append(of(r.RouterID).WiFi, r)
	}
	for _, r := range st.Flows {
		of(r.RouterID).Flows = append(of(r.RouterID).Flows, r)
	}
	for _, r := range st.Throughput {
		of(r.RouterID).Throughput = append(of(r.RouterID).Throughput, r)
	}
	return out
}

// TestScanRacesCompactAndExtract: reads that race segment rewrites —
// compaction replacing files, extraction rewriting them in place — never
// come back short, doubled or with a hole. Routers that are never
// extracted keep exactly their rows, in order, in every read; an
// extracted router only ever loses rows; no row is blank.
func TestScanRacesCompactAndExtract(t *testing.T) {
	const routers, moved = 12, 6 // bismark-000..005 move away, 006..011 stay
	s, err := segment.Open(segment.Options{Dir: t.TempDir(), FlushRows: 1 << 30, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 24; i++ {
		chunk := randomStore(uint64(500+i), 150)
		s.Append("chunk", func(dst *dataset.Store) { appendRows(dst, chunk) })
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ref := byRouter(s.Merge())
	if len(ref) != routers {
		t.Fatalf("reference has %d routers, want %d", len(ref), routers)
	}

	check := func(got *dataset.Store, what string) {
		parts := byRouter(got)
		if parts[""] != nil {
			t.Errorf("%s: blank rows (a hole in the output)", what)
		}
		for id, want := range ref {
			have := parts[id]
			if have == nil {
				have = &dataset.Store{}
			}
			if id >= fmt.Sprintf("bismark-%03d", moved) {
				if !reflect.DeepEqual(want, have) {
					t.Errorf("%s: rows of %s (never moved) changed: %d -> %d", what, id, rowsTotal(want), rowsTotal(have))
				}
			} else if rowsTotal(have) > rowsTotal(want) {
				t.Errorf("%s: rows of %s grew from %d to %d", what, id, rowsTotal(want), rowsTotal(have))
			}
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(name string, read func() *dataset.Store) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
					check(read(), fmt.Sprintf("%s %d", name, i))
				}
			}
		}()
	}
	reader("merge A", s.Merge)
	reader("merge B", s.Merge)
	reader("replay", func() *dataset.Store { return replay(t, s) })
	for i := 0; i < moved; i++ {
		if err := s.Compact(); err != nil {
			t.Error(err)
		}
		id := fmt.Sprintf("bismark-%03d", i)
		s.ExtractRouters(func(r string) bool { return r == id })
	}
	close(done)
	wg.Wait()
	if msg := s.LastFlushError(); msg != "" {
		t.Errorf("a racing read fell through to a skipped segment: %s", msg)
	}
	check(s.Merge(), "after the last rewrite")
}

// TestScanLeavesBadSegmentOut: a segment that cannot be decoded as its
// cached footer describes it — a payload byte flipped under the block
// CRC, or the file swapped for one with other row counts — fails every
// strict pass; the authoritative pass then returns all other segments'
// rows back to back and records the failure.
func TestScanLeavesBadSegmentOut(t *testing.T) {
	damage := map[string]func(t *testing.T, path string){
		"flipped payload byte": func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[8] ^= 0x20 // inside the first row block
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"rewritten with other row counts": func(t *testing.T, path string) {
			b := segment.Encode(randomStore(3, 40), nil, segment.SeqRange{First: 1, Last: 1}, nil)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := segment.Open(segment.Options{Dir: dir, FlushRows: 1 << 30, NoCompaction: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 4; i++ {
				chunk := randomStore(uint64(900+i), 300)
				s.Append("chunk", func(dst *dataset.Store) { appendRows(dst, chunk) })
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			bad := segFiles(t, dir)[1]
			hurt(t, bad)
			want := decodeConcat(t, dir, bad)
			sameRows(t, want, s.Merge(), "merge around the bad segment")
			if s.LastFlushError() == "" {
				t.Error("the skipped segment was not recorded in LastFlushError")
			}
			if err := s.Subscribe(func(*dataset.Store) {}); err == nil {
				t.Error("a replay over the bad segment reported no error")
			}
		})
	}
}

// TestCompactIgnoresThreshold: the explicit call compacts whatever can
// be compacted; CompactAt gates only the pass that follows a flush.
func TestCompactIgnoresThreshold(t *testing.T) {
	dir := t.TempDir()
	s, err := segment.Open(segment.Options{Dir: dir, FlushRows: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		applySequence(s, 200, uint64(70+i))
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.Segments()); n != 3 {
		t.Fatalf("%d segments after three flushes below CompactAt, want 3", n)
	}
	want := s.Merge()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Segments()); n >= 3 {
		t.Fatalf("Compact() left %d segments, want fewer than 3", n)
	}
	sameRows(t, want, s.Merge(), "merge after Compact()")
}
