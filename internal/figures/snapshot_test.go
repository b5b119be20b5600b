package figures

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/heartbeat"
	"natpeek/internal/rng"
	"natpeek/internal/segment"
)

// oldSnapshot is the recipe Dashboard.snapshot replaced: deep-copy the
// base, fold the tail into the copy row by row, materialize.
func oldSnapshot(base *analysis.Partial, tail *dataset.Store, hb *heartbeat.Log) *dataset.Store {
	p := base.Clone()
	p.Fold(tail)
	return p.Store(hb)
}

func newSnapshot(base *analysis.Partial, tail *dataset.Store, hb *heartbeat.Log) *dataset.Store {
	sn := analysis.NewSnapshot(tail)
	sn.Capture(base, nil)
	return sn.Store(hb)
}

// diffStores compares two stores kind by kind and, for flows, row by row
// in order.
func diffStores(t *testing.T, what string, want, got *dataset.Store) {
	t.Helper()
	if !reflect.DeepEqual(want.RouterCountry, got.RouterCountry) {
		t.Errorf("%s: rosters differ: %d vs %d routers", what, len(want.RouterCountry), len(got.RouterCountry))
	}
	for _, k := range dataset.Kinds {
		if k.Len(want) != k.Len(got) {
			t.Errorf("%s: %s: %d rows, want %d", what, k.File, k.Len(got), k.Len(want))
		}
	}
	if len(want.Flows) == len(got.Flows) {
		for i := range want.Flows {
			if want.Flows[i] != got.Flows[i] {
				t.Fatalf("%s: flow aggregate %d: %+v, want %+v", what, i, got.Flows[i], want.Flows[i])
			}
		}
	}
	eq := func(kind string, a, b any) {
		if reflect.ValueOf(a).Len() > 0 && !reflect.DeepEqual(a, b) {
			t.Errorf("%s: %s rows differ", what, kind)
		}
	}
	eq("uptime", want.Uptime, got.Uptime)
	eq("capacity", want.Capacity, got.Capacity)
	eq("counts", want.Counts, got.Counts)
	eq("sightings", want.Sightings, got.Sightings)
	eq("wifi", want.WiFi, got.WiFi)
	eq("throughput", want.Throughput, got.Throughput)
}

// TestSnapshotMatchesCloneFold: over random chunk sequences and random
// tails the copy-free snapshot is the store the old clone-per-render
// recipe built, and taking it leaves the base as it was — also once the
// base has folded its next chunk, which appends behind the slice headers
// the snapshot still holds and updates aggregates the snapshot copied.
func TestSnapshotMatchesCloneFold(t *testing.T) {
	hb := heartbeat.NewLog()
	for seed := uint64(1); seed <= 8; seed++ {
		s := rng.New(seed).Child("snapshot")
		routers := 3 + s.Intn(40)
		base := analysis.NewPartial()
		next := 0
		chunk := func(uploads, routers int) *dataset.Store {
			c := dataset.NewStore()
			loadgenMix(c, s, next, uploads, routers, 0.65)
			next += uploads
			return c
		}
		for i, n := 0, int(seed%4); i < n; i++ { // seeds 4 and 8: an empty base
			base.Fold(chunk(50+s.Intn(600), routers))
		}
		tails := []struct {
			name string
			rows *dataset.Store
		}{
			{"empty tail", dataset.NewStore()},
			// Named domains hit existing aggregates, anonymised ones are new keys.
			{"same fleet", chunk(1+s.Intn(400), routers)},
			{"new routers", chunk(1+s.Intn(400), routers+7)},
		}
		for _, tail := range tails {
			what := fmt.Sprintf("seed %d, %s", seed, tail.name)
			b, twin := base.Clone(), base.Clone()
			want := oldSnapshot(twin, tail.rows, hb)
			got := newSnapshot(b, tail.rows, hb)
			diffStores(t, what, want, got)
			diffStores(t, what+": base afterwards", twin.Store(hb), b.Store(hb))

			// The base folds on — the tail seals, another chunk follows —
			// behind the snapshot's back: it ends where a base nobody took
			// a snapshot of ends, and the snapshot has not moved.
			for _, c := range []*dataset.Store{tail.rows, chunk(200, routers)} {
				b.Fold(c)
				twin.Fold(c)
			}
			diffStores(t, what+": base after the next folds", twin.Store(hb), b.Store(hb))
			diffStores(t, what+": snapshot held across the next folds", want, got)
		}
	}
}

// fixtureDashboard seals uploads of loadgen mix into a segment store in
// a few chunks, leaves tailUploads more in the memtable, and returns a
// dashboard over it.
func fixtureDashboard(t testing.TB, uploads, tailUploads, routers int) *Dashboard {
	t.Helper()
	seg, err := segment.Open(segment.Options{Dir: t.TempDir(), FlushRows: 1 << 30, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	s := rng.New(7).Child("fixture")
	const chunks = 4
	for i := 0; i < chunks; i++ {
		seg.Append("fixture", func(dst *dataset.Store) {
			loadgenMix(dst, s, i*uploads/chunks, uploads/chunks, routers, 0.65)
		})
		if err := seg.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	seg.Append("fixture", func(dst *dataset.Store) { loadgenMix(dst, s, uploads, tailUploads, routers, 0.65) })
	d, err := NewDashboard(seg, DefaultWindows())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSnapshotAllocBudget: what a snapshot allocates does not depend on
// how much history the base holds — ten times the aggregates, the same
// handful of allocations (the copies themselves are one each).
func TestSnapshotAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var allocs [2]float64
	for i, uploads := range []int{4_500, 45_000} { // ≈10k and ≈100k aggregates
		d := fixtureDashboard(t, uploads, 64, 512)
		if agg := d.Stats().FlowAggregates; agg < uploads*2 {
			t.Fatalf("fixture holds %d aggregates, want at least %d", agg, uploads*2)
		}
		allocs[i] = testing.AllocsPerRun(10, func() { d.snapshot() })
	}
	t.Logf("allocations per snapshot: %.0f at ≈10k aggregates, %.0f at ≈100k", allocs[0], allocs[1])
	if allocs[1] > allocs[0]+4 || allocs[1] > 200 {
		t.Fatalf("snapshot allocations grew with history: %.0f → %.0f", allocs[0], allocs[1])
	}
}

// TestSnapshotLockHold measures the longest d.mu is held by a snapshot on
// the 100k-aggregate fixture: the flat copy, a few milliseconds, so a
// seal's fold waits behind at most that, never behind a render.
func TestSnapshotLockHold(t *testing.T) {
	d := fixtureDashboard(t, 45_000, 2_000, 512)
	d.Render()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // renders back to back, as the benchmark's reader does
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				d.Render()
			}
		}
	}()
	var worst time.Duration
	for i := 0; i < 200; i++ {
		time.Sleep(500 * time.Microsecond)
		start := time.Now()
		d.mu.Lock()
		wait := time.Since(start)
		d.mu.Unlock()
		worst = max(worst, wait)
	}
	close(stop)
	wg.Wait()
	start := time.Now()
	d.Render()
	worstRender := time.Since(start)
	t.Logf("longest wait for d.mu beside back-to-back renders over %d aggregates: %v (one render: %v)",
		d.Stats().FlowAggregates, worst, worstRender)
	// A lock that covered the figures too would make some sample wait
	// nearly a whole render; the margin is for a busy test machine.
	if !raceEnabled && worst > worstRender*3/4 {
		t.Fatalf("d.mu was held for %v, a render takes %v: the lock covers more than the flat copy", worst, worstRender)
	}
}

func BenchmarkDashboardRender(b *testing.B) {
	d := fixtureDashboard(b, 45_000, 2_000, 512)
	d.Render()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Render()
	}
}

func BenchmarkDashboardSnapshot(b *testing.B) {
	d := fixtureDashboard(b, 45_000, 2_000, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.snapshot()
	}
}
