package figures

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/segment"
)

// unit is the test stream's quantum: one Append adding k rows of the
// k-th kind and one router. A store that holds n whole units holds
// exactly n·k rows of every kind and n routers. A unit's flows go to the
// home of unit u/3, usually one an earlier chunk sealed, so a fold
// updates homes a page may be reading; they are under keys no other unit
// uses, so they never collapse, and their volumes differ per unit and
// device, so every flow exhibit moves with the prefix it is over.
func appendUnit(seg *segment.Store, u int) {
	seg.Append(fmt.Sprintf("unit-%05d", u), func(dst *dataset.Store) { unitRows(dst, u) })
}

// unitRows appends unit u's rows to dst.
func unitRows(dst *dataset.Store, u int) {
	id := fmt.Sprintf("unit-%05d", u)
	at := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(u) * time.Minute)
	dst.RouterCountry[id] = "US"
	dst.Uptime = append(dst.Uptime, dataset.UptimeReport{RouterID: id, ReportedAt: at, Uptime: time.Hour})
	for i := 0; i < 2; i++ {
		dst.Capacity = append(dst.Capacity, dataset.CapacityMeasure{RouterID: id, MeasuredAt: at, UpBps: 1e6, DownBps: 1e7})
	}
	for i := 0; i < 3; i++ {
		dst.Counts = append(dst.Counts, dataset.DeviceCount{RouterID: id, At: at, Wired: 1, W24: 2, W5: 1})
	}
	for i := 0; i < 4; i++ {
		dst.Sightings = append(dst.Sightings, dataset.DeviceSighting{RouterID: id, At: at, Device: mac.FromOUI(0x001CB3, uint32(i))})
	}
	for i := 0; i < 5; i++ {
		dst.WiFi = append(dst.WiFi, dataset.WiFiScan{RouterID: id, At: at, Band: "2.4GHz", Channel: 1 + i, VisibleAPs: 3})
	}
	for i := 0; i < 6; i++ {
		dst.Flows = append(dst.Flows, dataset.FlowRecord{RouterID: fmt.Sprintf("unit-%05d", u/3),
			Device: mac.FromOUI(0x001CB3, uint32(6*u+i)), Domain: []string{"google.com", "youtube.com", "facebook.com"}[i%3],
			Proto: "tcp", First: at, Last: at, UpBytes: int64(10 + u), DownBytes: int64(30_000 * (1 + i)), Conns: int64(1 + u%4)})
	}
	for i := 0; i < 7; i++ {
		dst.Throughput = append(dst.Throughput, dataset.ThroughputSample{RouterID: id, Minute: at, Dir: "down", PeakBps: 1e6})
	}
}

// wholeUnits returns n when rc is exactly n units, else -1.
func wholeUnits(rc dataset.RowCounts) int {
	n := rc.Uptime
	if rc != (dataset.RowCounts{Routers: n, Uptime: n, Capacity: 2 * n, Counts: 3 * n, Sightings: 4 * n, WiFi: 5 * n, Flows: 6 * n, Throughput: 7 * n}) {
		return -1
	}
	return n
}

// pageUnits is wholeUnits of a page: its roster's routers and its
// rollup's kept rows. A page's store holds no rows, and its rollup counts
// aggregates, not flow rows: checkPage vouches for the flows.
func pageUnits(st *dataset.Store, v *analysis.Rollup) int {
	rc := v.KeptRows()
	rc.Routers = len(st.RouterCountry)
	rc.Flows = 6 * rc.Uptime
	return wholeUnits(rc)
}

// checkPage compares a page of n units with the batch exhibits over the
// same n units: a page whose rollup lost, doubled or half-folded a chunk
// — or saw a fold change a home under it — reads differently.
func checkPage(st *dataset.Store, v *analysis.Rollup, n int) error {
	batch := dataset.NewStore()
	for u := 0; u < n; u++ {
		unitRows(batch, u)
	}
	if got, want := renderString(all(st, v, DefaultWindows())), renderString(All(batch, DefaultWindows())); got != want {
		return fmt.Errorf("exhibits of a %d-unit page:\n%s\nthe batch exhibits over those units:\n%s", n, got, want)
	}
	return nil
}

func renderString(reports []*Report) string {
	var b strings.Builder
	for _, r := range reports {
		b.WriteString(r.String())
	}
	return b.String()
}

func openSeg(t *testing.T) *segment.Store {
	t.Helper()
	seg, err := segment.Open(segment.Options{Dir: t.TempDir(), FlushRows: 1 << 30, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	return seg
}

// TestSnapshotSeesChunkBetweenPublishAndFold: the store publishes a
// sealed generation — out of the tail, into the segment list — before it
// calls its subscribers. A snapshot taken in between must not come back
// without that chunk: it is in neither the tail nor, yet, the base.
func TestSnapshotSeesChunkBetweenPublishAndFold(t *testing.T) {
	seg := openSeg(t)
	// An earlier subscriber holds the seal callback, and with it the
	// window, open until the test lets go.
	entered, release := make(chan struct{}), make(chan struct{})
	if err := seg.Subscribe(func(*dataset.Store) { entered <- struct{}{}; <-release }); err != nil {
		t.Fatal(err)
	}
	d, err := NewDashboard(seg, DefaultWindows())
	if err != nil {
		t.Fatal(err)
	}
	const units = 40
	for u := 0; u < units; u++ {
		appendUnit(seg, u)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- seg.Flush() }()
	<-entered // published; the dashboard has not been told

	got := make(chan error, 1)
	go func() {
		st, v, _ := d.snapshot()
		if n := pageUnits(st, v); n != units {
			got <- fmt.Errorf("snapshot inside the seal window holds %d units (%+v), the store %d", n, v.KeptRows(), units)
			return
		}
		got <- checkPage(st, v, units)
	}()
	// A snapshot that comes back while the window is open had better be
	// whole; one that waits for the fold is let through after a while.
	var pageErr error
	waited := false
	select {
	case pageErr = <-got:
	case <-time.After(200 * time.Millisecond):
		waited = true
	}
	close(release)
	if waited {
		pageErr = <-got
	}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if pageErr != nil {
		t.Fatal(pageErr)
	}
	if n := wholeUnits(dataset.CountRows(seg.Merge())); n != units {
		t.Fatalf("the store holds %d units, want %d", n, units)
	}
}

// TestRendersBesideSeals: readers snapshot in a loop while a writer
// appends units and seals every few of them behind a subscriber that
// dawdles. Every snapshot is a whole prefix of the stream — the same
// number of units in every kind, so no chunk is half there or there
// twice — no shorter than what had been sealed when it began, and no
// shorter than the reader's previous one; and every exhibit on it, flow
// and kept kinds alike, is the batch exhibit over that prefix, however
// many folds have copied the home versions it reads since it was taken.
func TestRendersBesideSeals(t *testing.T) {
	seg := openSeg(t)
	if err := seg.Subscribe(func(*dataset.Store) {
		for i := 0; i < 50; i++ { // widen the publish-to-fold window
			runtime.Gosched()
		}
	}); err != nil {
		t.Fatal(err)
	}
	d, err := NewDashboard(seg, DefaultWindows())
	if err != nil {
		t.Fatal(err)
	}
	const units, readers = 240, 3
	var sealed atomic.Int64 // units known to be in sealed segments
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for pages := 0; ; pages++ {
				select {
				case <-stop:
					if pages == 0 {
						t.Errorf("reader %d never rendered", r)
					}
					return
				default:
				}
				floor := int(sealed.Load())
				st, v, stats := d.snapshot()
				n := pageUnits(st, v)
				switch {
				case n < 0:
					t.Errorf("reader %d: snapshot is no prefix of the stream: %d routers, %+v", r, len(st.RouterCountry), v.KeptRows())
					return
				case n < floor:
					t.Errorf("reader %d: snapshot holds %d units, %d were sealed before it began", r, n, floor)
					return
				case n < last:
					t.Errorf("reader %d: snapshot went back from %d units to %d", r, last, n)
					return
				case stats.Rows.Uptime > n:
					t.Errorf("reader %d: header counts %d sealed units, the page %d", r, stats.Rows.Uptime, n)
					return
				}
				last = n
				if err := checkPage(st, v, n); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}()
	}
	var flushErr error
	for u := 0; u < units && flushErr == nil; u++ {
		appendUnit(seg, u)
		if u%5 == 4 {
			flushErr = seg.Flush()
			sealed.Store(int64(u + 1))
		}
	}
	close(stop)
	wg.Wait()
	if flushErr != nil {
		t.Fatal(flushErr)
	}
	st, v, _ := d.snapshot()
	if n := pageUnits(st, v); n != units {
		t.Fatalf("final snapshot holds %d units, want %d", n, units)
	}
	if err := checkPage(st, v, units); err != nil {
		t.Fatal(err)
	}
}

// TestPageDescribesItself: the counts and the duration a page prints are
// those of the snapshot it was rendered from, whatever has sealed since.
func TestPageDescribesItself(t *testing.T) {
	seg := openSeg(t)
	d, err := NewDashboard(seg, DefaultWindows())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 10; u++ {
		appendUnit(seg, u)
		if u == 3 || u == 7 {
			if err := seg.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, page := d.render()
	// A seal lands after the render, before the handler writes its header.
	if err := seg.Flush(); err != nil {
		t.Fatal(err)
	}
	if page.SealedChunks != 2 || page.Rows.Uptime != 8 || page.RawFlowRows != 6*8 || page.FlowAggregates != 6*8 {
		t.Fatalf("page describes %+v, it was rendered from 2 sealed chunks of 8 units", page)
	}
	if page.LastRenderMs <= 0 {
		t.Fatalf("page reports a render time of %v ms, not its own", page.LastRenderMs)
	}
	if now := d.Stats(); now.SealedChunks != 3 || now.Rows.Uptime != 10 {
		t.Fatalf("Stats() = %+v after the third seal", now)
	}

	mux := http.NewServeMux()
	d.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/figures")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"over 3 sealed chunks (3 segment files)", "60 raw flow rows collapsed to 60 aggregates", "Table 1"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("GET /figures lacks %q:\n%.300s", want, body)
		}
	}
}
