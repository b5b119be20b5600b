package figures

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/heartbeat"
	"natpeek/internal/segment"
)

// chunkStores splits st into n contiguous chunks per row kind,
// simulating the sealed-segment stream. The full roster rides in the
// first chunk so incremental folds resolve countries exactly like the
// batch pass does.
func chunkStores(st *dataset.Store, n int) []*dataset.Store {
	out := make([]*dataset.Store, n)
	for i := range out {
		out[i] = &dataset.Store{RouterCountry: map[string]string{}}
	}
	for id, c := range st.RouterCountry {
		out[0].RouterCountry[id] = c
	}
	span := func(l, i int) (int, int) { return i * l / n, (i + 1) * l / n }
	for i := 0; i < n; i++ {
		lo, hi := span(len(st.Uptime), i)
		out[i].Uptime = st.Uptime[lo:hi]
		lo, hi = span(len(st.Capacity), i)
		out[i].Capacity = st.Capacity[lo:hi]
		lo, hi = span(len(st.Counts), i)
		out[i].Counts = st.Counts[lo:hi]
		lo, hi = span(len(st.Sightings), i)
		out[i].Sightings = st.Sightings[lo:hi]
		lo, hi = span(len(st.WiFi), i)
		out[i].WiFi = st.WiFi[lo:hi]
		lo, hi = span(len(st.Flows), i)
		out[i].Flows = st.Flows[lo:hi]
		lo, hi = span(len(st.Throughput), i)
		out[i].Throughput = st.Throughput[lo:hi]
	}
	return out
}

func renderAll(st *dataset.Store, w Windows) []string {
	return render(All(st, w), st)
}

// renderPartial renders what p folded: the exhibits off its rollup, Ext.
// §7 off its aggregates.
func renderPartial(p *analysis.Partial, hb *heartbeat.Log, w Windows) []string {
	st := p.Store(hb)
	return render(all(st, folded(p), w), st)
}

func render(reports []*Report, st *dataset.Store) []string {
	var out []string
	for _, r := range reports {
		out = append(out, r.String())
	}
	return append(out, ExtUsageByCountry(st).String())
}

func diffReports(t *testing.T, want, got []string, what string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d reports vs %d", what, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: report %d differs:\n--- batch ---\n%s\n--- incremental ---\n%s",
				what, i, want[i], got[i])
		}
	}
}

// TestPartialEquivalence is the core incremental-equals-batch claim:
// folding the study's rows chunk-by-chunk into a Partial and rendering
// from the projection reproduces every exhibit byte-for-byte, real
// heartbeat figures included.
func TestPartialEquivalence(t *testing.T) {
	st, w := study(t)
	batch := renderAll(st, w)

	p := analysis.NewPartial()
	for _, c := range chunkStores(st, 7) {
		p.Fold(c)
	}
	if p.FlowAggregates() >= p.RawFlowRows() {
		t.Fatalf("flow projection did not compress: %d aggregates from %d rows",
			p.FlowAggregates(), p.RawFlowRows())
	}
	diffReports(t, batch, renderPartial(p, st.Heartbeats, w), "sequential fold")

	// Mergeability: two independently-accumulated partials combine into
	// the same state.
	chunks := chunkStores(st, 7)
	p1, p2 := analysis.NewPartial(), analysis.NewPartial()
	for _, c := range chunks[:3] {
		p1.Fold(c)
	}
	for _, c := range chunks[3:] {
		p2.Fold(c)
	}
	p1.Merge(p2)
	diffReports(t, batch, renderPartial(p1, st.Heartbeats, w), "merged partials")

	// Clone independence: folding the tail into a clone leaves the base
	// renderable and unchanged.
	base := analysis.NewPartial()
	for _, c := range chunks[:6] {
		base.Fold(c)
	}
	before := renderPartial(base, st.Heartbeats, w)
	cl := base.Clone()
	cl.Fold(chunks[6])
	diffReports(t, batch, renderPartial(cl, st.Heartbeats, w), "clone+tail")
	diffReports(t, before, renderPartial(base, st.Heartbeats, w), "base after clone fold")
}

// feedChunks drives the same chunked upload sequence into any ingest
// store, optionally flushing between chunks.
func feedChunks(s dataset.IngestStore, chunks []*dataset.Store, flush func()) {
	for i, c := range chunks {
		c := c
		s.Append("feeder", func(dst *dataset.Store) {
			for id, code := range c.RouterCountry {
				dst.RouterCountry[id] = code
			}
			dst.Uptime = append(dst.Uptime, c.Uptime...)
			dst.Capacity = append(dst.Capacity, c.Capacity...)
			dst.Counts = append(dst.Counts, c.Counts...)
			dst.Sightings = append(dst.Sightings, c.Sightings...)
			dst.WiFi = append(dst.WiFi, c.WiFi...)
			dst.Flows = append(dst.Flows, c.Flows...)
			dst.Throughput = append(dst.Throughput, c.Throughput...)
		})
		if flush != nil && i < len(chunks)-1 {
			flush()
		}
	}
}

// TestDashboardMatchesBatch is the end-to-end plumbing check: the same
// upload sequence through a segment store with a live Dashboard renders
// identically to the batch figures over a plain sharded store. The last
// chunk is left unflushed so the render exercises the live-tail fold.
func TestDashboardMatchesBatch(t *testing.T) {
	st, w := study(t)
	chunks := chunkStores(st, 5)

	plain := dataset.NewSharded(0)
	feedChunks(plain, chunks, nil)

	seg, err := segment.Open(segment.Options{Dir: t.TempDir(), FlushRows: 1 << 24})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	d, err := NewDashboard(seg, w)
	if err != nil {
		t.Fatal(err)
	}
	feedChunks(seg, chunks, func() {
		if err := seg.Flush(); err != nil {
			t.Fatal(err)
		}
	})

	// Both heartbeat logs are empty (heartbeats arrive over UDP, not
	// uploads), so the comparison spans the row-backed exhibits. The page
	// is All's exhibits; Ext §7 is not on it (TestPartialEquivalence
	// covers it over a folded store).
	batchStore := plain.Merge()
	var batch []string
	for _, r := range All(batchStore, w) {
		batch = append(batch, r.String())
	}

	stats := d.Stats()
	if stats.SealedChunks != 4 {
		t.Fatalf("sealed chunks = %d, want 4", stats.SealedChunks)
	}
	var inc []string
	for _, r := range d.Render() {
		inc = append(inc, r.String())
	}
	diffReports(t, batch, inc, "dashboard vs batch")

	// The last chunk is still in the tail; the four sealed ones are folded.
	sealed := len(batchStore.Flows) - len(chunks[4].Flows)
	if got := d.Stats().RawFlowRows; got != sealed {
		t.Fatalf("dashboard folded %d flow rows, the sealed chunks hold %d", got, sealed)
	}
}

// TestSaturationDirectionsOnPage: throughput rows whose Dir is neither
// "up" nor "down" stay stored but make no Fig. 15/16 link, on the batch
// page and on a dashboard page alike (they used to be three more
// downlinks here).
func TestSaturationDirectionsOnPage(t *testing.T) {
	st := dataset.NewStore()
	at := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	for _, id := range []string{"us-1", "us-2"} {
		st.RouterCountry[id] = "US"
		st.Capacity = append(st.Capacity, dataset.CapacityMeasure{RouterID: id, MeasuredAt: at, UpBps: 1e6, DownBps: 2e7})
		for i, dir := range []string{"up", "down", "sideways", "", "Down"} {
			st.Throughput = append(st.Throughput, dataset.ThroughputSample{RouterID: id,
				Minute: at.Add(time.Duration(i) * time.Minute), Dir: dir, PeakBps: 2e6, TotalBytes: 1e5})
		}
	}
	w := DefaultWindows()
	chunks := chunkStores(st, 2)
	plain := dataset.NewSharded(0)
	feedChunks(plain, chunks, nil)
	seg, err := segment.Open(segment.Options{Dir: t.TempDir(), FlushRows: 1 << 24})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	d, err := NewDashboard(seg, w)
	if err != nil {
		t.Fatal(err)
	}
	feedChunks(seg, chunks, func() {
		if err := seg.Flush(); err != nil {
			t.Fatal(err)
		}
	})

	merged := plain.Merge()
	if len(merged.Throughput) != 10 {
		t.Fatalf("%d throughput rows stored, want all 10", len(merged.Throughput))
	}
	reports := All(merged, w)
	var batch, page []string
	for _, r := range reports {
		batch = append(batch, r.String())
	}
	for _, r := range d.Render() {
		page = append(page, r.String())
	}
	diffReports(t, batch, page, "dashboard vs batch")
	for _, r := range reports {
		switch r.ID {
		case "Figure 15":
			if s := r.String(); !strings.Contains(s, "downlink n=2 ") || !strings.Contains(s, "uplink   n=2 ") {
				t.Errorf("Fig. 15 should have two links per direction:\n%s", s)
			}
		case "Figure 16":
			if s := r.String(); strings.Count(s, "home=") != 2 {
				t.Errorf("Fig. 16 should list both saturated uplinks once:\n%s", s)
			}
		}
	}
}

// TestDashboardStatsShape sanity-checks the diagnostics payload.
func TestDashboardStatsShape(t *testing.T) {
	st, w := study(t)
	seg, err := segment.Open(segment.Options{Dir: t.TempDir(), FlushRows: 1 << 24})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	d, err := NewDashboard(seg, w)
	if err != nil {
		t.Fatal(err)
	}
	feedChunks(seg, chunkStores(st, 3), func() {
		if err := seg.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	d.Render()
	s := d.Stats()
	if s.SealedChunks != 2 || s.Segments != 2 {
		t.Fatalf("stats %+v: want 2 sealed chunks over 2 segments", s)
	}
	if s.Rows.Flows == 0 || s.FlowAggregates == 0 {
		t.Fatalf("stats %+v: empty projection", s)
	}
	if fmt.Sprintf("%.1f", s.LastRenderMs) == "" {
		t.Fatal("unreachable")
	}
}
