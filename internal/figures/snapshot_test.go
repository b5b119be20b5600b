package figures

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/heartbeat"
	"natpeek/internal/rng"
	"natpeek/internal/segment"
)

// oldSnapshot is the recipe Dashboard.snapshot replaced: deep-copy the
// base, fold the tail into the copy, and read the copy's rollup.
func oldSnapshot(base *analysis.Partial, tail *dataset.Store, hb *heartbeat.Log) (*dataset.Store, *analysis.Rollup) {
	p := base.Clone()
	p.Fold(tail)
	return p.Store(hb), folded(p)
}

func newSnapshot(base *analysis.Partial, tail *dataset.Store, hb *heartbeat.Log) (*dataset.Store, *analysis.Rollup) {
	sn := analysis.NewSnapshot(tail)
	sn.Capture(base)
	return sn.Store(hb), sn.Rollup()
}

// diffStores compares two stores' rosters and row counts. A snapshot's
// store holds no rows; compare its rollup with diffRollups instead.
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
}

// TestSnapshotMatchesCloneFold: over random chunk sequences and random
// tails the copy-free snapshot is the roster and the rollup the old
// clone-per-render recipe built, and taking it leaves the base as it was
// — also once the base has folded its next chunk, which folds into home
// versions the snapshot's rollup reads.
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
			// Named domains hit existing entries, anonymised ones are new.
			{"same fleet", chunk(1+s.Intn(400), routers)},
			{"new routers", chunk(1+s.Intn(400), routers+7)},
		}
		for _, tail := range tails {
			what := fmt.Sprintf("seed %d, %s", seed, tail.name)
			b, twin := base.Clone(), base.Clone()
			want, wantFlows := oldSnapshot(twin, tail.rows, hb)
			got, gotFlows := newSnapshot(b, tail.rows, hb)
			diffStores(t, what, want, got)
			diffRollups(t, what, want, wantFlows, gotFlows)
			diffStores(t, what+": base afterwards", twin.Store(hb), b.Store(hb))

			// The base folds on — the tail seals, another chunk follows —
			// behind the snapshot's back: it ends where a base nobody took
			// a snapshot of ends, and the snapshot has not moved.
			for _, c := range []*dataset.Store{tail.rows, chunk(200, routers)} {
				b.Fold(c)
				twin.Fold(c)
			}
			diffStores(t, what+": base after the next folds", twin.Store(hb), b.Store(hb))
			diffRollups(t, what+": base rollup after the next folds", twin.Store(hb), folded(twin), folded(b))
			diffStores(t, what+": snapshot held across the next folds", want, got)
			diffRollups(t, what+": snapshot held across the next folds", want, wantFlows, gotFlows)
		}
	}
}

// fixtureDashboard seals uploads of loadgen mix into a segment store in
// a few chunks, leaves tailUploads more in the memtable, and returns a
// dashboard over it. The tail is drawn from a stream of its own, so two
// fixtures that differ only in history have the same tail rows.
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
	seg.Append("fixture", func(dst *dataset.Store) {
		loadgenMix(dst, rng.New(7).Child("tail"), 0, tailUploads, routers, 0.65)
	})
	d, err := NewDashboard(seg, DefaultWindows())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSnapshotAllocBudget: what a snapshot allocates does not depend on
// how much history the base holds — ten times the aggregates, the same
// allocations: the tail's rollup, the roster's clone and the overlay's
// two index arrays. No row of the history is copied.
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
	// The absolute bound is the 64-upload tail's own rollup — its flow
	// homes, and each of its routers' kept state — with room to spare.
	if allocs[1] > allocs[0]+4 || allocs[1] > 400 {
		t.Fatalf("snapshot allocations grew with history: %.0f → %.0f", allocs[0], allocs[1])
	}
}

// TestRenderWorkIsTailBound: what a whole render allocates — snapshot,
// roster, every exhibit — is set by the tail and the fleet, not by how
// much history is sealed under them: four times the sealed rows, the
// same tail, allocation counts and allocated bytes each within 10 %. The
// fleet is small enough that the shorter history already has rows of
// every kind from every router, so both renders format the same fleet.
// Counting bytes as well catches a few large copies of history, which
// barely move the count.
func TestRenderWorkIsTailBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var allocs, bytes [2]float64
	for i, uploads := range []int{6_000, 24_000} {
		d := fixtureDashboard(t, uploads, 256, 64)
		d.Render()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs[i] = testing.AllocsPerRun(runs, func() { d.Render() })
		runtime.ReadMemStats(&after)
		// AllocsPerRun renders once more to warm up.
		bytes[i] = float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	}
	t.Logf("per render over the same tail: %.0f allocations, %.2f MB with H sealed uploads; %.0f, %.2f MB with 4H",
		allocs[0], bytes[0]/1e6, allocs[1], bytes[1]/1e6)
	if allocs[1] > allocs[0]*1.1 {
		t.Errorf("render allocations grew with history: %.0f → %.0f", allocs[0], allocs[1])
	}
	if bytes[1] > bytes[0]*1.1 {
		t.Errorf("render bytes grew with history: %.2f → %.2f MB", bytes[0]/1e6, bytes[1]/1e6)
	}
}

// TestSnapshotLockHold: d.mu covers a render's capture and not its
// figures, so a seal's fold never waits behind a render. A render is
// parked right after its snapshot — where a lock that also covered the
// figures would still be held — and a seal must fold while it waits.
func TestSnapshotLockHold(t *testing.T) {
	d := fixtureDashboard(t, 600, 50, 16)
	sealed := d.Stats().SealedChunks
	parked, release := make(chan struct{}), make(chan struct{})
	afterSnapshot = func() {
		parked <- struct{}{}
		<-release
	}
	defer func() { afterSnapshot = nil }()
	rendered := make(chan struct{})
	go func() {
		defer close(rendered)
		d.Render()
	}()
	<-parked
	flushed := make(chan error, 1)
	go func() {
		d.src.Append("seal", func(dst *dataset.Store) {
			loadgenMix(dst, rng.New(9).Child("seal"), 0, 20, 16, 0.65)
		})
		flushed <- d.src.Flush()
	}()
	select {
	case err := <-flushed:
		close(release)
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		<-flushed
		t.Fatal("a seal's fold waited for a render parked after its snapshot: d.mu covers more than the capture")
	}
	<-rendered
	if got := d.Stats().SealedChunks; got != sealed+1 {
		t.Fatalf("sealed chunks %d after one seal, want %d", got, sealed+1)
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
