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
)

// Dashboard maintains a continuously-updating view of every paper
// exhibit over a segment store. Sealed segments stream in exactly once
// through the store's subscription and fold into a mergeable
// analysis.Partial; a render clones the partial, folds the store's live
// tail on top, and regenerates the figures from the projection — it
// never re-reads sealed history. The rendered output is bit-identical
// to running the batch figures over the store's full merged view (see
// the analysis.Partial package comment for the exactness argument).
type Dashboard struct {
	src *segment.Store
	win Windows

	mu     sync.Mutex
	base   *analysis.Partial
	sealed int // chunks folded into base

	lastRender   time.Duration
	renderedOnce bool
}

// NewDashboard subscribes to src and folds all existing segments
// immediately.
func NewDashboard(src *segment.Store, w Windows) (*Dashboard, error) {
	d := &Dashboard{src: src, win: w, base: analysis.NewPartial()}
	// The store's footers already say how much the replay will fold.
	d.base.Grow(src.RowCounts())
	if err := src.Subscribe(d.fold); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Dashboard) fold(chunk *dataset.Store) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.base.Fold(chunk)
	d.sealed++
}

// snapshot produces a consistent projected store: sealed chunks 1..n
// plus the live tail, with no chunk counted twice or dropped. If a seal
// lands between cloning the base and reading the tail (the chunk would
// be missing from both), the loop retries on the fresh state.
func (d *Dashboard) snapshot() (*dataset.Store, *analysis.Partial) {
	for {
		d.mu.Lock()
		p := d.base.Clone()
		n := d.sealed
		d.mu.Unlock()
		tail := d.src.Tail()
		d.mu.Lock()
		moved := d.sealed != n
		d.mu.Unlock()
		if moved {
			continue
		}
		p.Fold(tail)
		return p.Store(d.src.HeartbeatLog()), p
	}
}

// Render regenerates every exhibit from the current projection.
func (d *Dashboard) Render() []*Report {
	start := time.Now()
	st, _ := d.snapshot()
	out := All(st, d.win)
	d.mu.Lock()
	d.lastRender = time.Since(start)
	d.renderedOnce = true
	d.mu.Unlock()
	return out
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
		reports := d.Render()
		s := d.Stats()
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
		reports := d.Render()
		out := struct {
			Stats   DashboardStats `json:"stats"`
			Reports []apiReport    `json:"reports"`
		}{Stats: d.Stats()}
		for _, rep := range reports {
			out.Reports = append(out.Reports, apiReport{
				ID: rep.ID, Title: rep.Title, PaperClaim: rep.PaperClaim, Lines: rep.Lines,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
}
