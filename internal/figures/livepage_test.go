package figures

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/geo"
	"natpeek/internal/rng"
	"natpeek/internal/segment"
)

// TestPagesAcrossSealsMatchBatch: pages interleaved with appends, with a
// seal, with a seal whose commit failed — its generation waits in the
// frozen slot while the live memtable grows behind it — and with that
// generation's publication. With writes paused at each step, two pages
// rendered at once both equal the batch exhibits over the store's
// merged rows. A page that only follows appends extends the last page's
// tail; one after a publication starts it over.
func TestPagesAcrossSealsMatchBatch(t *testing.T) {
	dir := t.TempDir()
	seg, err := segment.Open(segment.Options{Dir: dir, FlushRows: 1 << 30, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	d, err := NewDashboard(seg, DefaultWindows())
	if err != nil {
		t.Fatal(err)
	}
	u := 0
	appendUnits := func(n int) {
		for ; n > 0; n-- {
			appendUnit(seg, u)
			u++
		}
	}
	seals := 0
	flush := func() error {
		err := seg.Flush()
		if err == nil {
			seals++
		}
		return err
	}
	page := func(step string, rebuilds uint64) {
		t.Helper()
		before := d.mRebuilds.Value()
		var got [2]string
		var wg sync.WaitGroup
		for r := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[r] = renderString(d.Render())
			}()
		}
		wg.Wait()
		want := renderString(All(seg.Merge(), DefaultWindows()))
		for r, g := range got {
			if g != want {
				t.Fatalf("%s: reader %d's page:\n%s\nthe batch exhibits over the store:\n%s", step, r, g, want)
			}
		}
		if n := d.mRebuilds.Value() - before; n != rebuilds {
			t.Errorf("%s: %d pages started the tail over, want %d", step, n, rebuilds)
		}
	}

	page("empty store", 0)
	appendUnits(3)
	page("appends", 0)
	appendUnits(4)
	page("more appends", 0)
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	page("a seal", 1)
	appendUnits(5)
	page("appends after the seal", 0)

	// A directory where the next commit writes its temporary file fails
	// that commit: the sealed generation stays frozen, not published.
	block := filepath.Join(dir, fmt.Sprintf("%016x-%016x.seg.tmp", seals, seals))
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	appendUnits(2)
	if err := flush(); err == nil {
		t.Fatal("a commit over a directory succeeded")
	}
	page("a generation frozen, not published", 0)
	appendUnits(6)
	page("the live memtable grows behind the frozen one", 0)
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	page("the frozen generation and the live one published", 1)
	appendUnits(3)
	page("appends after the publication", 0)
}

// TestPageAfterExtractMatchesBatch: an extraction takes a router's rows
// out of the memtable a page's tail was read from and re-bases what is
// left; the next page starts the tail over instead of continuing from a
// cursor into rows that moved, and equals the batch exhibits over what
// the store holds.
func TestPageAfterExtractMatchesBatch(t *testing.T) {
	seg := openSeg(t)
	d, err := NewDashboard(seg, DefaultWindows())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 21; u++ {
		appendUnit(seg, u)
		if u == 5 {
			if err := seg.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.Render()
	// unit-00006's rows, and the flows of units 18–20 that are under it,
	// are all in the memtable.
	moved, _ := seg.ExtractRouters(func(id string) bool { return id == "unit-00006" })
	if rc := dataset.CountRows(moved); rc.Uptime != 1 || rc.Flows != 18 {
		t.Fatalf("extract moved %+v, want unit 6's rows and units 18–20's flows", rc)
	}
	for u := 21; u < 24; u++ {
		appendUnit(seg, u)
	}
	if got, want := renderString(d.Render()), renderString(All(seg.Merge(), DefaultWindows())); got != want {
		t.Fatalf("page after an extract:\n%s\nthe batch exhibits over the store:\n%s", got, want)
	}
}

// TestPageWorkIsIncrementBound: a page over a live tail pays for the rows
// since the last page, not for the tail: eight uploads appended between
// pages over a 256-upload tail and over a 4,096-upload tail, the same
// history under both, and what a page allocates — count and bytes — is
// the same within 10 %. The fleet is as large as the shorter tail, so
// both tails hold every router and both pages format the same fleet.
func TestPageWorkIsIncrementBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const routers, runs = 256, 8
	var allocs, bytes [2]float64
	for i, tail := range []int{256, 4_096} {
		d := fixtureDashboard(t, 24_000, tail, routers)
		d.Render()
		inc := rng.New(8).Child("increment")
		var before, after runtime.MemStats
		for k := 0; k < runs; k++ {
			d.src.Append("increment", func(dst *dataset.Store) {
				loadgenMix(dst, inc, k*8, 8, routers, 0.65)
			})
			runtime.ReadMemStats(&before)
			d.Render()
			runtime.ReadMemStats(&after)
			allocs[i] += float64(after.Mallocs-before.Mallocs) / runs
			bytes[i] += float64(after.TotalAlloc-before.TotalAlloc) / runs
		}
	}
	t.Logf("per page, 8 uploads after the last: %.0f allocations, %.2f MB over a 256-upload tail; %.0f, %.2f MB over 4,096",
		allocs[0], bytes[0]/1e6, allocs[1], bytes[1]/1e6)
	if allocs[1] > allocs[0]*1.1 {
		t.Errorf("page allocations grew with the tail: %.0f → %.0f", allocs[0], allocs[1])
	}
	if bytes[1] > bytes[0]*1.1 {
		t.Errorf("page bytes grew with the tail: %.2f → %.2f MB", bytes[0]/1e6, bytes[1]/1e6)
	}
}

// TestPageRecomputesOnlyTouchedHomes: a live page summarizes only the
// homes whose rows changed since the last page. Over a 512-router
// fixture, a page after 8 uploads computes a summary for at most the
// routers those uploads named, plus homes new to the page; a page after
// a seal, for at most the routers whose rows that seal folded. The first
// page computes every home's. The usage aggregates it carries move with
// the same homes: Fig. 15's samples lose and gain at most one value per
// direction a touched home, Fig. 16's rows change for touched homes
// only, and a page with no new row shares the last page's samples and
// rows, Fig. 19's order and Fig. 20's devices, whose bits equal the
// batch's.
func TestPageRecomputesOnlyTouchedHomes(t *testing.T) {
	const routers, tail = 512, 16
	d := fixtureDashboard(t, 4_500, tail, routers)
	homes := len(d.src.Merge().Routers())
	if _, st := d.render(); st.Summaries != homes {
		t.Fatalf("the first page computed %d home summaries, want one per home: %d", st.Summaries, homes)
	}
	// unsealed holds the routers the memtable has rows of: the fixture's
	// tail, then every upload since the last seal.
	unsealed := map[string]bool{}
	name := func(u, fleet int) string { return fmt.Sprintf("load-%05d", u%fleet) } // loadgenMix's router of upload u
	for u := 0; u < tail; u++ {
		unsealed[name(u, routers)] = true
	}
	inc := rng.New(36).Child("increment")
	next := 0
	_, _, last, _ := d.snapshot()
	page := func(step string, touched map[string]bool) {
		t.Helper()
		_, st := d.render()
		if st.Summaries > len(touched) {
			t.Errorf("%s: the page computed %d home summaries; its rows touched %d homes", step, st.Summaries, len(touched))
		}
		// A page of no new rows after it: it carries everything.
		_, _, v, _ := d.snapshot()
		_, _, again, _ := d.snapshot()
		for _, dir := range []string{"up", "down"} {
			if gone, came := changed(last.Utilization(dir), v.Utilization(dir)); len(gone) > len(touched) || len(came) > len(touched) {
				t.Errorf("%s: Fig. 15's %s sample lost %d and gained %d values; the rows touched %d homes", step, dir, len(gone), len(came), len(touched))
			}
			if !sameArray(v.Utilization(dir), again.Utilization(dir)) {
				t.Errorf("%s: a page with no new rows made Fig. 15's %s sample again", step, dir)
			}
		}
		gone, came := changed(last.Oversaturated(), v.Oversaturated())
		for _, row := range append(gone, came...) {
			if id, _, _ := strings.Cut(strings.TrimPrefix(row, "home="), " "); !touched[id] {
				t.Errorf("%s: Fig. 16's row of untouched %s changed: %s", step, id, row)
			}
		}
		if !sameArray(v.Oversaturated(), again.Oversaturated()) {
			t.Errorf("%s: a page with no new rows made Fig. 16's rows again", step)
		}
		if a, b := again.DomainShares(10), v.DomainShares(10); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: Fig. 19's curves moved on a page of no new rows: %v, %v", step, a, b)
		}
		if a, b := again.TopDevices(4), v.TopDevices(4); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: Fig. 20's devices moved on a page of no new rows: %v, %v", step, a, b)
		}
		last = again
	}
	uploads := func(step string, fleet int) {
		t.Helper()
		touched := map[string]bool{}
		for u := next; u < next+8; u++ {
			touched[name(u, fleet)] = true
			unsealed[name(u, fleet)] = true
		}
		d.src.Append("increment", func(dst *dataset.Store) { loadgenMix(dst, inc, next, 8, fleet, 0.65) })
		next += 8
		page(step, touched)
	}
	seal := func(step string) {
		t.Helper()
		if err := d.src.Flush(); err != nil {
			t.Fatal(err)
		}
		page(step, unsealed)
		unsealed = map[string]bool{}
	}
	for round := 0; round < 3; round++ {
		for k := 0; k < 6; k++ {
			uploads(fmt.Sprintf("round %d, 8 uploads after page %d", round, k), routers)
		}
		seal(fmt.Sprintf("round %d, a seal", round))
	}
	// Uploads from a larger fleet name homes no page has seen.
	next = routers
	uploads("8 uploads from new routers", routers+8)
	if got := len(d.src.Merge().Routers()); got != homes+8 {
		t.Fatalf("the fleet holds %d routers, want %d", got, homes+8)
	}
	if got, want := renderString(d.Render()), renderString(All(d.src.Merge(), DefaultWindows())); got != want {
		t.Fatalf("the last page:\n%s\nthe batch exhibits over the store:\n%s", got, want)
	}
	st := d.src.Merge()
	_, _, v, _ := d.snapshot()
	want := analysis.RollupOf(st)
	if a, b := want.DomainShares(10), v.DomainShares(10); !reflect.DeepEqual(a, b) {
		t.Errorf("the last page's Fig. 19 curves %v, the batch's %v", b, a)
	}
	if a, b := want.TopDevices(4), v.TopDevices(4); !reflect.DeepEqual(a, b) {
		t.Errorf("the last page's Fig. 20 devices %v, the batch's %v", b, a)
	}
}

// changed returns what b lacks of a (gone) and what a lacks of b (came),
// as multisets.
func changed[T comparable](a, b []T) (gone, came []T) {
	n := map[T]int{}
	for _, x := range a {
		n[x]++
	}
	for _, x := range b {
		if n[x] > 0 {
			n[x]--
		} else {
			came = append(came, x)
		}
	}
	for x, k := range n {
		for ; k > 0; k-- {
			gone = append(gone, x)
		}
	}
	return gone, came
}

// sameArray reports whether a and b are one slice: the same elements
// in the same memory.
func sameArray[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestTailReadsOnlyNewRegistrations: the tail rows a page reads after
// the last come with the routers registered or moved since, not the
// tail's roster. Over the 512-router fixture a page after 8 uploads
// reads no more routers than those uploads registered, whether they
// re-register routers the tail holds, register new ones or move one to
// another country; and each page still equals the batch exhibits.
func TestTailReadsOnlyNewRegistrations(t *testing.T) {
	const routers = 512
	d := fixtureDashboard(t, 4_500, 16, routers)
	d.Render()
	inc := rng.New(44).Child("increment")
	step := func(what string, registered int, uploads func(dst *dataset.Store)) {
		t.Helper()
		d.src.Append("increment", uploads)
		rows, _, fresh := d.src.TailFrom(d.cursor)
		if fresh {
			t.Fatalf("%s: the tail was read whole", what)
		}
		if n := len(rows.RouterCountry); n > registered {
			t.Errorf("%s: the page read a %d-router roster; the uploads since registered %d", what, n, registered)
		}
		if got, want := renderString(d.Render()), renderString(All(d.src.Merge(), DefaultWindows())); got != want {
			t.Fatalf("%s: the page:\n%s\nthe batch exhibits over the store:\n%s", what, got, want)
		}
	}
	// Uploads u to u+7 of a fleet register routers u%fleet to (u+7)%fleet.
	mix := func(first, fleet int) func(dst *dataset.Store) {
		return func(dst *dataset.Store) { loadgenMix(dst, inc, first, 8, fleet, 0.65) }
	}
	step("8 uploads from the fixture's routers", 8, mix(16, routers))
	step("8 more", 8, mix(24, routers))
	step("8 uploads from new routers", 8, mix(routers, routers+8))
	step("a router moved to another country", 1, func(dst *dataset.Store) { dst.RouterCountry["load-00003"] = "PK" })
}

// TestLivePagesMatchBatchOverSchedule: a seeded schedule of uploads,
// seals, compactions and re-registrations that move a router to another
// country — a router of the sealed history or of the live tail — with a
// page after each step, every page equal byte for byte to the batch
// exhibits over the store's merged rows. Each page takes what still
// holds of the last page's home summaries and roster, so a page that
// kept one a step had changed reads differently from the batch.
func TestLivePagesMatchBatchOverSchedule(t *testing.T) {
	const routers = 48
	seg := openSeg(t)
	d, err := NewDashboard(seg, DefaultWindows())
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(36).Child("schedule")
	codes := geo.All()
	next := 0
	for step := 0; step < 60; step++ {
		var what string
		switch s.WeightedChoice([]float64{6, 1.5, 0.5, 1.5}) {
		case 0:
			n := 1 + s.Intn(12)
			seg.Append("schedule", func(dst *dataset.Store) { loadgenMix(dst, s, next, n, routers, 0.65) })
			next += n
			what = fmt.Sprintf("%d uploads", n)
		case 1:
			if err := seg.Flush(); err != nil {
				t.Fatal(err)
			}
			what = "a seal"
		case 2:
			if err := seg.Compact(); err != nil {
				t.Fatal(err)
			}
			what = "a compaction"
		default:
			// loadgenMix registers router r in codes[r%len(codes)]; any
			// other code moves it, and its next upload moves it back.
			r := s.Intn(routers)
			code := codes[(r+1+s.Intn(len(codes)-1))%len(codes)].Code
			id := fmt.Sprintf("load-%05d", r)
			seg.Append(id, func(dst *dataset.Store) { dst.RouterCountry[id] = code })
			what = fmt.Sprintf("%s re-registered in %s", id, code)
		}
		got, want := renderString(d.Render()), renderString(All(seg.Merge(), DefaultWindows()))
		if got != want {
			t.Fatalf("step %d (%s): the page:\n%s\nthe batch exhibits over the store:\n%s", step, what, got, want)
		}
	}
	if st := d.Stats(); st.SealedChunks < 5 {
		t.Fatalf("the schedule sealed %d chunks; it is meant to cross several seals", st.SealedChunks)
	}
}

// BenchmarkLivePage is figures-live's loop in one process: eight uploads
// appended between pages over the fixture's history and tail, and a
// seal every 64 pages, which starts the next page's tail over. Each page
// is rendered to the text GET /figures writes.
func BenchmarkLivePage(b *testing.B) {
	const routers = 512
	d := fixtureDashboard(b, 45_000, 2_000, routers)
	d.Render()
	inc := rng.New(8).Child("increment")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.src.Append("increment", func(dst *dataset.Store) {
			loadgenMix(dst, inc, i*8, 8, routers, 0.65)
		})
		if i%64 == 63 {
			if err := d.src.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		pageText(d.render())
	}
}

// livePages renders BenchmarkLivePage's page — eight uploads after the
// last page over a 512-router fleet, rendered to GET /figures' text —
// pages times after the first, and returns the allocations, the bytes
// allocated and the bytes left live after a collection, per page.
func livePages(t *testing.T, pages int) (allocs, bytes, live float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d := fixtureDashboard(t, 45_000, 2_000, 512)
	pageText(d.render())
	inc := rng.New(8).Child("increment")
	var start, before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&start)
	for i := 0; i < pages; i++ {
		d.src.Append("increment", func(dst *dataset.Store) {
			loadgenMix(dst, inc, i*8, 8, 512, 0.65)
		})
		runtime.ReadMemStats(&before)
		pageText(d.render())
		runtime.ReadMemStats(&after)
		allocs += float64(after.Mallocs - before.Mallocs)
		bytes += float64(after.TotalAlloc - before.TotalAlloc)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := float64(pages)
	return allocs / n, bytes / n, float64(int64(after.HeapAlloc)-int64(start.HeapAlloc)) / n
}

// TestLivePageAllocBudget: BenchmarkLivePage's page stays within an
// allocation budget. The per-home rows, the CDF lines and the
// fleet-wide exhibits each used to allocate per home or per device on
// every page: about 5,300 allocations a page in all, and 2,090 with the
// kept-kind statistics in the home summaries. The budget is the 1,585 a
// page makes with Figs. 15–20 read from aggregates carried from page to
// page, and a quarter again.
func TestLivePageAllocBudget(t *testing.T) {
	const budget = 1_980
	per, _, _ := livePages(t, 16)
	t.Logf("%.0f allocations per page", per)
	if per > budget {
		t.Errorf("a page allocates %.0f times, over its budget of %d", per, budget)
	}
}

// TestLivePageBytesBudget: BenchmarkLivePage's page allocates no more
// than its budget of bytes, so garbage the size of the fleet — a copy
// of every home's links or of every fleet device, made on every page —
// cannot come back unnoticed. With such copies a page allocated 0.80 MB;
// the budget is the 0.38 MB a page allocates with Figs. 15–20 carried
// from page to page, and a quarter again. Nor may pages keep earlier
// pages alive: over 64 pages the heap grows by about 14,600 bytes a
// page, the rows the uploads add to the memtable and the tail; a page
// that held a pointer to the last page's overlay, and so a chain of
// every page's tail since the seal, kept 71,500.
func TestLivePageBytesBudget(t *testing.T) {
	const budget, liveBudget = 480_000, 30_000
	_, per, live := livePages(t, 64)
	t.Logf("%.0f bytes per page, %.0f left live", per, live)
	if per > budget {
		t.Errorf("a page allocates %.0f bytes, over its budget of %d", per, budget)
	}
	if live > liveBudget {
		t.Errorf("a page leaves %.0f bytes live, over its budget of %d", live, liveBudget)
	}
}
