package figures

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/segment"
	"natpeek/internal/telemetry"
)

// Dashboard maintains a continuously-updating view of every paper
// exhibit over a segment store. Sealed segments stream in exactly once
// through the store's subscription and fold into an analysis.Partial's
// rollup, which is folded anew when an extraction rewrites them
// (refold). The live tail's rollup is kept from page to page: a render
// reads the tail rows recorded since the previous page and extends the
// previous page's analysis.Snapshot by them, starting the tail over only
// when a seal is published or an extraction re-bases the memtable. It
// then lays the tail over the partial's frozen rollup, summarizes the
// homes whose versions changed since the last page (analysis.Snapshot's
// Rollup), and regenerates the figures from that over GOMAXPROCS
// goroutines. A page pays for the rows since the last page, a lookup per
// tail home, domain and device those rows added (Capture), a summary per
// home that they or a seal touched, and the exhibits; it never re-reads
// sealed history, never copies or regroups its rows, and never clones
// the partial. The rendered output is bit-identical to running the batch
// figures over the store's full merged view (see the analysis.Partial
// package comment for the exactness argument).
type Dashboard struct {
	src *segment.Store
	win Windows

	// tailMu serializes the pages' reads of new tail rows and their folds
	// into the kept tail: tail is the last page's snapshot, read up to
	// cursor, which the next page extends.
	tailMu sync.Mutex
	cursor segment.TailCursor
	tail   *analysis.Snapshot

	mu     sync.Mutex
	folded *sync.Cond // signalled after every fold; L is &mu
	base   *analysis.Partial
	sealed int    // chunks folded into base
	gen    uint64 // the store's seal generation as of the last fold

	lastRender time.Duration

	hRender, hSnapshot, hFold *telemetry.Histogram
	gAggregates, gSealed      *telemetry.Gauge
	mTailRows, mRebuilds      *telemetry.Counter
}

// NewDashboard subscribes to src and folds all existing segments
// immediately.
func NewDashboard(src *segment.Store, w Windows) (*Dashboard, error) {
	d := &Dashboard{
		src: src, win: w, base: analysis.NewPartial(),

		hRender: telemetry.Default.Histogram("natpeek_figures_render_seconds",
			"Time to render every exhibit once: snapshot plus figures.", nil),
		hSnapshot: telemetry.Default.Histogram("natpeek_figures_snapshot_seconds",
			"Time a render spent building its snapshot: tail read and rollup, capture.", nil),
		hFold: telemetry.Default.Histogram("natpeek_figures_fold_seconds",
			"Time to fold one sealed chunk into the dashboard's partial, renders locked out.", nil),
		gAggregates: telemetry.Default.Gauge("natpeek_figures_flow_aggregates",
			"(home, device, domain) entries the dashboard's partial holds, as of the last fold."),
		gSealed: telemetry.Default.Gauge("natpeek_figures_sealed_chunks",
			"Sealed chunks folded into the dashboard's partial."),
		mTailRows: telemetry.Default.Counter("natpeek_figures_tail_rows_total",
			"Live tail rows that pages folded into the dashboard's kept tail rollup."),
		mRebuilds: telemetry.Default.Counter("natpeek_figures_tail_rebuilds_total",
			"Pages that started the kept tail rollup over, after a seal's publication or an extraction."),
	}
	d.folded = sync.NewCond(&d.mu)
	if err := src.Subscribe(d.fold); err != nil {
		return nil, err
	}
	src.OnRewrite(d.refold)
	return d, nil
}

// refold replaces the partial by one folded anew from the sealed
// segments, after an extraction took a router's rows out of them: the
// partial still holds what it folded of those rows. Pages wait for it.
// It costs what the dashboard's first fold costs, once per extraction
// that reaches sealed rows — a rebalance's, not a page's.
func (d *Dashboard) refold(replay func(each func(*dataset.Store)) error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, n := analysis.NewPartial(), 0
	if err := replay(func(chunk *dataset.Store) { p.Fold(chunk); n++ }); err != nil {
		// A segment that no longer reads: keep what was folded, as a
		// page of a store it fails to reopen would show no more.
		return
	}
	d.base, d.sealed = p, n
	d.gAggregates.Set(float64(p.FlowAggregates()))
	d.gSealed.Set(float64(n))
}

func (d *Dashboard) fold(chunk *dataset.Store) {
	d.mu.Lock()
	start := time.Now()
	d.base.Fold(chunk)
	d.sealed++
	// While existing segments replay this is the generation of the last
	// seal, live it is this chunk's. A store with no segment to replay
	// has sealed nothing since Open (segments are merged and rewritten,
	// never dropped), which is the zero d.gen starts at.
	d.gen = d.src.SealGen()
	d.hFold.Observe(time.Since(start).Seconds())
	d.gAggregates.Set(float64(d.base.FlowAggregates()))
	d.gSealed.Set(float64(d.sealed))
	d.mu.Unlock()
	d.folded.Broadcast()
}

// snapshot produces a consistent roster and rollup —
// sealed chunks 1..n plus the live tail, no chunk counted twice or
// dropped — and the incremental state it was taken from. The store
// publishes a sealed generation before it tells its subscribers, so a
// tail can be missing a chunk the base has not folded yet: the tail
// comes with the generation it belongs to, and the base is read once it
// has folded exactly that one. A base that is already past it (a seal
// landed after the tail was read) would count that chunk twice; the tail
// is read again, from the start. d.mu is held for the capture only, so a
// fold never waits behind a render: the home summaries are made after.
func (d *Dashboard) snapshot() (*dataset.Store, *analysis.Roster, *analysis.Rollup, DashboardStats) {
	for {
		sn, gen := d.readTail()
		d.mu.Lock()
		for d.gen < gen {
			d.folded.Wait()
		}
		if d.gen > gen {
			d.mu.Unlock()
			continue
		}
		sn.Capture(d.base)
		stats := d.statsLocked()
		d.mu.Unlock()
		// Unlock queues a goroutine that waited on d.mu — a seal's fold —
		// to run next on this processor, and the render would keep it
		// there until preempted, a scheduler time slice, whenever a GC
		// worker holds the other processors. Hand it the processor now.
		runtime.Gosched()
		v := sn.Rollup()
		stats.Summaries = v.Summarized()
		return sn.Store(d.src.HeartbeatLog()), sn.Roster(), v, stats
	}
}

// readTail returns a snapshot of the whole live tail, uncaptured, and
// the seal generation it belongs to: the last page's extended by the
// rows since, or the tail rolled up anew when the store cannot continue
// the last page's read.
func (d *Dashboard) readTail() (*analysis.Snapshot, uint64) {
	d.tailMu.Lock()
	defer d.tailMu.Unlock()
	rows, next, fresh := d.src.TailFrom(d.cursor) // fresh on the first page
	if fresh {
		if d.tail != nil {
			d.mRebuilds.Inc()
		}
		d.tail = analysis.NewSnapshot(rows)
	} else {
		d.tail = d.tail.Extend(rows)
	}
	d.cursor = next
	d.mTailRows.Add(int64(dataset.CountRows(rows).Total()))
	return d.tail, next.Gen()
}

// afterSnapshot, when set, runs in render between the snapshot and the
// figures: a test seam that parks a render where d.mu must be free.
var afterSnapshot func()

// Render regenerates every exhibit from the current projection.
func (d *Dashboard) Render() []*Report {
	out, _ := d.render()
	return out
}

// render is Render plus the description of the state this very page was
// rendered from; LastRenderMs is this render's own duration.
func (d *Dashboard) render() ([]*Report, DashboardStats) {
	start := time.Now()
	st, ro, v, stats := d.snapshot()
	d.hSnapshot.Observe(time.Since(start).Seconds())
	if afterSnapshot != nil {
		afterSnapshot()
	}
	out := all(st, ro, v, d.win)
	stats.Entries = v.Availability(st.Heartbeats, ro, d.win.Availability).Made()
	took := time.Since(start)
	d.hRender.Observe(took.Seconds())
	stats.LastRenderMs = float64(took.Microseconds()) / 1000
	d.mu.Lock()
	d.lastRender = took
	d.mu.Unlock()
	return out, stats
}

// Stats describes the dashboard's incremental state.
type DashboardStats struct {
	SealedChunks   int               `json:"sealed_chunks"`
	Segments       int               `json:"segments"`
	Rows           dataset.RowCounts `json:"rows"`
	RawFlowRows    int               `json:"raw_flow_rows"`
	FlowAggregates int               `json:"flow_aggregates"` // (home, device, domain) entries
	// Summaries counts the home summaries the page computed, the others
	// it took from an earlier page: the homes whose rows changed since.
	// Entries counts the same of the availability entries: the routers
	// whose beats, home summary or country changed since.
	Summaries    int     `json:"summaries"`
	Entries      int     `json:"availability_entries"`
	LastRenderMs float64 `json:"last_render_ms"`
}

// Stats reports fold/render diagnostics (tail rows excluded).
func (d *Dashboard) Stats() DashboardStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.statsLocked()
}

func (d *Dashboard) statsLocked() DashboardStats {
	return DashboardStats{
		SealedChunks:   d.sealed,
		Segments:       len(d.src.Segments()),
		Rows:           d.base.Rows(),
		RawFlowRows:    d.base.RawFlowRows(),
		FlowAggregates: d.base.FlowAggregates(),
		LastRenderMs:   float64(d.lastRender.Microseconds()) / 1000,
	}
}

// pageText is the text GET /figures serves: a header describing the page
// and each report followed by a blank line, written once into a buffer
// of its size.
func pageText(reports []*Report, s DashboardStats) string {
	n := 256
	for _, rep := range reports {
		n += rep.size() + 1
	}
	var b strings.Builder
	b.Grow(n)
	fmt.Fprintf(&b, "natpeek figures — incremental render over %d sealed chunks (%d segment files)\n",
		s.SealedChunks, s.Segments)
	fmt.Fprintf(&b, "projection: %d raw flow rows collapsed to %d (home, device, domain) entries; render took %.1fms\n\n",
		s.RawFlowRows, s.FlowAggregates, s.LastRenderMs)
	for _, rep := range reports {
		rep.writeTo(&b)
		b.WriteByte('\n')
	}
	return b.String()
}

// Register mounts the dashboard on mux: GET /figures renders the
// exhibits as text, GET /api/figures returns them as JSON alongside the
// incremental-state diagnostics.
func (d *Dashboard) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /figures", func(w http.ResponseWriter, r *http.Request) {
		reports, s := d.render()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, pageText(reports, s))
	})
	mux.HandleFunc("GET /api/figures", func(w http.ResponseWriter, r *http.Request) {
		type apiReport struct {
			ID         string   `json:"id"`
			Title      string   `json:"title"`
			PaperClaim string   `json:"paper_claim,omitempty"`
			Lines      []string `json:"lines"`
		}
		reports, stats := d.render()
		out := struct {
			Stats   DashboardStats `json:"stats"`
			Reports []apiReport    `json:"reports"`
		}{Stats: stats}
		for _, rep := range reports {
			out.Reports = append(out.Reports, apiReport{
				ID: rep.ID, Title: rep.Title, PaperClaim: rep.PaperClaim, Lines: rep.Lines,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
}
