package figures

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/segment"
	"natpeek/internal/telemetry"
)

// Dashboard maintains a continuously-updating view of every paper
// exhibit over a segment store. Sealed segments stream in exactly once
// through the store's subscription and fold into a mergeable
// analysis.Partial; a render takes an analysis.Snapshot of the partial
// with the store's live tail on top — a flat copy of the flow aggregates
// plus work proportional to the tail — and regenerates the figures from
// it. It never re-reads sealed history and never clones the partial. The
// rendered output is bit-identical to running the batch figures over the
// store's full merged view (see the analysis.Partial package comment for
// the exactness argument).
type Dashboard struct {
	src *segment.Store
	win Windows

	mu     sync.Mutex
	folded *sync.Cond // signalled after every fold; L is &mu
	base   *analysis.Partial
	sealed int    // chunks folded into base
	gen    uint64 // the store's seal generation as of the last fold

	lastRender time.Duration
	// spare is the aggregate array of the last finished render's
	// snapshot, for the next one to copy into.
	spare []dataset.FlowRecord

	hRender, hSnapshot, hFold *telemetry.Histogram
	gAggregates, gSealed      *telemetry.Gauge
}

// NewDashboard subscribes to src and folds all existing segments
// immediately.
func NewDashboard(src *segment.Store, w Windows) (*Dashboard, error) {
	d := &Dashboard{
		src: src, win: w, base: analysis.NewPartial(),

		hRender: telemetry.Default.Histogram("natpeek_figures_render_seconds",
			"Time to render every exhibit once: snapshot plus figures.", nil),
		hSnapshot: telemetry.Default.Histogram("natpeek_figures_snapshot_seconds",
			"Time a render spent building its snapshot: tail read, flat copy, tail fold.", nil),
		hFold: telemetry.Default.Histogram("natpeek_figures_fold_seconds",
			"Time to fold one sealed chunk into the dashboard's partial, renders locked out.", nil),
		gAggregates: telemetry.Default.Gauge("natpeek_figures_flow_aggregates",
			"Flow aggregates the dashboard's partial holds, as of the last fold."),
		gSealed: telemetry.Default.Gauge("natpeek_figures_sealed_chunks",
			"Sealed chunks folded into the dashboard's partial."),
	}
	d.folded = sync.NewCond(&d.mu)
	// The store's footers already say how much the replay will fold.
	d.base.Grow(src.RowCounts())
	if err := src.Subscribe(d.fold); err != nil {
		return nil, err
	}
	return d, nil
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

// snapshot produces a consistent projected store — sealed chunks 1..n
// plus the live tail, no chunk counted twice or dropped — and the
// incremental state it was taken from. The store publishes a sealed
// generation before it tells its subscribers, so a tail can be missing
// a chunk the base has not folded yet: the tail comes with the
// generation it belongs to, and the base is read once it has folded
// exactly that one. A base that is already past it (a seal landed after
// the tail was read) would count that chunk twice; the tail is read
// again. d.mu is held for the flat copy only, so a fold never waits
// behind a render.
func (d *Dashboard) snapshot() (*dataset.Store, DashboardStats) {
	for {
		tail, gen := d.src.TailGen()
		sn := analysis.NewSnapshot(tail)
		d.mu.Lock()
		for d.gen < gen {
			d.folded.Wait()
		}
		if d.gen > gen {
			d.mu.Unlock()
			continue
		}
		sn.Capture(d.base, d.spare)
		d.spare = nil
		stats := d.statsLocked()
		d.mu.Unlock()
		return sn.Store(d.src.HeartbeatLog()), stats
	}
}

// Render regenerates every exhibit from the current projection.
func (d *Dashboard) Render() []*Report {
	out, _ := d.render()
	return out
}

// render is Render plus the description of the state this very page was
// rendered from; LastRenderMs is this render's own duration.
func (d *Dashboard) render() ([]*Report, DashboardStats) {
	start := time.Now()
	st, stats := d.snapshot()
	d.hSnapshot.Observe(time.Since(start).Seconds())
	out := All(st, d.win)
	took := time.Since(start)
	d.hRender.Observe(took.Seconds())
	stats.LastRenderMs = float64(took.Microseconds()) / 1000
	d.mu.Lock()
	d.lastRender = took
	d.spare = st.Flows // the reports hold strings, nothing of st
	d.mu.Unlock()
	return out, stats
}

// Stats describes the dashboard's incremental state.
type DashboardStats struct {
	SealedChunks   int               `json:"sealed_chunks"`
	Segments       int               `json:"segments"`
	Rows           dataset.RowCounts `json:"rows"`
	RawFlowRows    int               `json:"raw_flow_rows"`
	FlowAggregates int               `json:"flow_aggregates"`
	LastRenderMs   float64           `json:"last_render_ms"`
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

// Register mounts the dashboard on mux: GET /figures renders the
// exhibits as text, GET /api/figures returns them as JSON alongside the
// incremental-state diagnostics.
func (d *Dashboard) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /figures", func(w http.ResponseWriter, r *http.Request) {
		reports, s := d.render()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "natpeek figures — incremental render over %d sealed chunks (%d segment files)\n",
			s.SealedChunks, s.Segments)
		fmt.Fprintf(w, "projection: %d raw flow rows collapsed to %d aggregates; render took %.1fms\n\n",
			s.RawFlowRows, s.FlowAggregates, s.LastRenderMs)
		for _, rep := range reports {
			fmt.Fprintln(w, rep.String())
		}
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
