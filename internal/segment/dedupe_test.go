package segment_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/segment"
	"natpeek/internal/telemetry"
)

// applyOne applies one uptime row for router under key and reports
// whether it applied.
func applyOne(s dataset.IngestStore, router, key string) bool {
	return s.Apply(router, key, func(st *dataset.Store) {
		st.RouterCountry[router] = "US"
		st.Uptime = append(st.Uptime, dataset.UptimeReport{RouterID: router, ReportedAt: t0})
	})
}

// TestReplayOlderThanWindow says what the bounded FIFO window means at
// the two boundaries a key can cross. A replay inside the window is
// rejected before and after a seal and before and after Close/Open; a
// replay of a key the window has already evicted applies again — the
// store cannot tell it from a new upload — and that too is the same in a
// running store and in one reopened from its segments, because the
// reopen re-marks every key block in the order the keys were first
// marked.
func TestReplayOlderThanWindow(t *testing.T) {
	const window = 4
	dir := t.TempDir()
	opt := segment.Options{Dir: dir, FlushRows: 1 << 20, NoCompaction: true}
	s, err := segment.OpenOver(opt, dataset.NewDedupe(1, window))
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return fmt.Sprintf("rt:%d", i) }
	rows := 0
	expect := func(s *segment.Store, i int, applies bool, when string) {
		t.Helper()
		if got := applyOne(s, "rt", key(i)); got != applies {
			t.Fatalf("%s: key %d applied=%v, want %v", when, i, got, applies)
		}
		if applies {
			rows++
		}
		if got := s.RowCounts().Uptime; got != rows {
			t.Fatalf("%s: %d rows, want %d", when, got, rows)
		}
		if got := s.DedupeLen(); got != window && rows >= window {
			t.Fatalf("%s: DedupeLen %d, want the full window of %d", when, got, window)
		}
	}
	for i := 0; i < 6; i++ {
		expect(s, i, true, "first delivery")
	}
	// Window: 2 3 4 5.
	expect(s, 5, false, "inside, before the seal")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	expect(s, 5, false, "inside, after the seal")
	expect(s, 2, false, "oldest inside, after the seal")
	expect(s, 0, true, "older than the window, after the seal") // evicts 2
	// Window: 3 4 5 0.
	expect(s, 0, false, "just re-applied")
	expect(s, 3, false, "inside, before Close")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Two segments on disk, key blocks [0 1 2 3 4 5] and [0]: seeding a
	// fresh window with them, oldest first, ends on 3 4 5 0 again.
	s2, err := segment.OpenOver(opt, dataset.NewDedupe(1, window))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.RowCounts().Uptime; got != rows {
		t.Fatalf("reopened with %d rows, want %d", got, rows)
	}
	for _, i := range []int{3, 4, 5, 0} {
		expect(s2, i, false, "inside, after the reopen")
	}
	expect(s2, 1, true, "older than the window, after the reopen") // evicts 3
	expect(s2, 2, true, "evicted before Close, after the reopen")  // evicts 4
	expect(s2, 5, false, "still inside")
}

// flushAlloc applies one fresh row and returns the bytes allocated by
// sealing and committing it.
func flushAlloc(t *testing.T, s *segment.Store) uint64 {
	t.Helper()
	if !applyOne(s, "seal-rt", "seal-rt:the-row") {
		t.Fatal("fresh key rejected")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := len(s.Segments()); got != 1 {
		t.Fatalf("%d segments after one flush", got)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestSealCostIndependentOfIndexSize: sealing hands the window to the
// next generation by pointer, so the same one-row flush allocates the
// same with a thousand remembered keys as with two hundred thousand. A
// count, not a timing: a per-seal copy of the window shows up as
// megabytes here.
func TestSealCostIndependentOfIndexSize(t *testing.T) {
	var alloc [2]uint64
	for i, keys := range []int{1000, 200000} {
		d := dataset.NewDedupe(0, 0)
		for k := 0; k < keys; k++ {
			r := fmt.Sprintf("old-%03d", k%500)
			d.Mark(r, fmt.Sprintf("%s:%d", r, k))
		}
		s, err := segment.OpenOver(segment.Options{Dir: t.TempDir(), FlushRows: 1 << 20, NoCompaction: true}, d)
		if err != nil {
			t.Fatal(err)
		}
		alloc[i] = flushAlloc(t, s)
		if got := s.DedupeLen(); got != keys+1 {
			t.Fatalf("DedupeLen %d after the seal, want %d", got, keys+1)
		}
		s.Close()
	}
	if alloc[1] > 2*alloc[0] {
		t.Fatalf("one-row flush allocated %d B with 1k keys remembered, %d B with 200k", alloc[0], alloc[1])
	}
}

// TestReplaysRaceFlushAndExtract is the fence around the shared index:
// appliers mark through the live generation while seals swap it out and
// an extract reads keys through the frozen and live generations at once.
// For two seconds replays of already-applied keys, fresh uploads, Flush
// and ExtractRouters run against each other; no replay may ever apply,
// every key must stay remembered exactly once, and every row must be
// either in the store or in what the extracts moved out.
func TestReplaysRaceFlushAndExtract(t *testing.T) {
	s, err := segment.Open(segment.Options{Dir: t.TempDir(), FlushRows: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const seeded, routers = 4000, 16
	router := func(i int) string { return fmt.Sprintf("race-rt-%02d", i%routers) }
	key := func(i int) string { return fmt.Sprintf("%s:%d", router(i), i) }
	for i := 0; i < seeded; i++ {
		if !applyOne(s, router(i), key(i)) {
			t.Fatalf("seed key %d rejected", i)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				fn(i)
			}
		}()
	}
	var fresh, moved atomic.Int64
	for g := 0; g < 2; g++ {
		g := g
		run(func(i int) { // replays, of seeded keys and of fresh ones already acknowledged
			k := (i*2 + g) % (seeded + int(fresh.Load()))
			if applyOne(s, router(k), key(k)) {
				t.Errorf("replay of key %d applied twice", k)
				cancel()
			}
		})
	}
	run(func(int) { // fresh uploads keep the memtable worth sealing
		k := seeded + int(fresh.Load())
		if !applyOne(s, router(k), key(k)) {
			t.Errorf("fresh key %d rejected", k)
			cancel()
		}
		fresh.Add(1)
	})
	run(func(int) {
		if err := s.Flush(); err != nil {
			t.Errorf("flush: %v", err)
			cancel()
		}
	})
	run(func(i int) { // a different quarter of the routers each pass
		st, _ := s.ExtractRouters(func(r string) bool {
			return len(r) == len("race-rt-00") && int(r[len(r)-1]-'0')%4 == i%4
		})
		moved.Add(int64(len(st.Uptime)))
	})
	wg.Wait()

	total := seeded + int(fresh.Load())
	t.Logf("%d fresh keys, %d rows moved out, %d segments", fresh.Load(), moved.Load(), len(s.Segments()))
	if got := s.DedupeLen(); got != total {
		t.Fatalf("DedupeLen %d, want %d: one per key ever applied", got, total)
	}
	if got := s.RowCounts().Uptime + int(moved.Load()); got != total {
		t.Fatalf("%d rows in the store + %d moved out, want %d in all", s.RowCounts().Uptime, moved.Load(), total)
	}
	for i := 0; i < total; i++ {
		if applyOne(s, router(i), key(i)) {
			t.Fatalf("key %d re-applied after the race", i)
		}
	}
}

// TestSealMetricsMove: the seal is visible in /metrics — how long
// appliers were locked out, how long the flush took, how many keys the
// window holds — updated once per seal.
func TestSealMetricsMove(t *testing.T) {
	lock := telemetry.Default.Histogram("natpeek_segment_seal_lock_seconds", "", nil)
	flush := telemetry.Default.Histogram("natpeek_segment_flush_seconds", "", nil)
	keys := telemetry.Default.Gauge("natpeek_segment_dedupe_keys", "")

	dir := t.TempDir()
	s, err := segment.Open(segment.Options{Dir: dir, FlushRows: 1 << 20, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	if keys.Value() != 0 {
		t.Fatalf("dedupe_keys = %v on an empty store", keys.Value())
	}
	applySequence(s, 300, 3)
	locks, flushes := lock.Count(), flush.Count()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if lock.Count() != locks+1 || flush.Count() != flushes+1 {
		t.Fatalf("one seal observed %d lock holds and %d flushes", lock.Count()-locks, flush.Count()-flushes)
	}
	if keys.Value() != 300 {
		t.Fatalf("dedupe_keys = %v after sealing 300 keys", keys.Value())
	}
	if err := s.Flush(); err != nil { // nothing to seal: nothing observed
		t.Fatal(err)
	}
	if lock.Count() != locks+1 || flush.Count() != flushes+1 {
		t.Fatal("an empty flush was observed as a seal")
	}
	s.Close()
	keys.Set(0)
	s2, err := segment.Open(segment.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if keys.Value() != 300 {
		t.Fatalf("dedupe_keys = %v after reopening 300 keys", keys.Value())
	}
}
