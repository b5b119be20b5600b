package main

// figures-live: writes beside reads. One client trickles batches into a
// collector with the live dashboard mounted while one reader issues
// GET /figures back to back. Freshness markers ride in the writer's
// stream: each registers one more US router, and Table 1 on the page
// prints the developed-group roster size, so the first page whose
// "developed total=" has grown past a marker's count shows that marker.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/figures"
)

type figuresLive struct {
	cfg       runConfig
	pre, live []op // the preloaded history, and the trickle with its markers

	dir    string
	sys    *system
	expect dataset.RowCounts
}

// page is one GET /figures as the reader saw it.
type page struct {
	start, end time.Time
	developed  int // Table 1's developed-group roster size
}

func (w *figuresLive) prepare() error {
	preBatches := batchesFor(float64(w.cfg.preloadRows))
	w.pre = generate(genConfig{seed: w.cfg.seed, batches: preBatches}).ops
	ws := generate(genConfig{seed: w.cfg.seed, firstBatch: preBatches, batches: batchesFor(openRateFigures * w.cfg.timed.Seconds())})
	// One marker after every few batches, about markerEvery apart at
	// the offered rate.
	stride := max(1, int(math.Round(markerEvery.Seconds()*openRateFigures*float64(len(ws.ops))/float64(ws.rows))))
	for i, o := range ws.ops {
		w.live = append(w.live, o)
		if (i+1)%stride == 0 {
			k := (i + 1) / stride
			m, err := registerOp(fmt.Sprintf("marker-%d-%04d", w.cfg.seed, k), "US")
			if err != nil {
				return err
			}
			m.marker = k
			w.live = append(w.live, m)
		}
	}
	return nil
}

func (w *figuresLive) setup(ctx context.Context) error {
	var err error
	if w.dir, err = os.MkdirTemp(w.cfg.scratch, w.cfg.workload+"-"); err != nil {
		return err
	}
	if w.sys, err = startSingle(w.dir, true); err != nil {
		return err
	}
	n, err := registerFleet(ctx, w.sys.base, countryCodes())
	if err != nil {
		return err
	}
	// Preload, then seal it: the live phase starts from a dashboard that
	// already holds folded history, as a long-running one does.
	res := runPhase(ctx, w.sys.base, phase{ops: w.pre, clients: clients(), postSpan: "collector.post_batch"}, nil)
	if res.failed > 0 {
		return fmt.Errorf("preload: %d of %d operations failed", res.failed, res.attempted)
	}
	w.expect = sumCounts(dataset.RowCounts{Routers: n}, res.acked)
	if err := w.sys.flush(); err != nil {
		return err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	for i := 0; i < 3; i++ { // warm the render path and the reader's parser
		if _, err := getFigures(ctx, hc, w.sys.base); err != nil {
			return err
		}
	}
	return nil
}

// getFigures fetches the page and reads the marker line off it.
func getFigures(ctx context.Context, hc *http.Client, base string) (page, error) {
	p := page{start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/figures", nil)
	if err != nil {
		return p, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return p, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	p.end = time.Now()
	if err != nil {
		return p, err
	}
	if resp.StatusCode != http.StatusOK {
		return p, fmt.Errorf("GET /figures: status %d", resp.StatusCode)
	}
	p.developed, err = developedTotal(body)
	return p, err
}

// developedTotal parses Table 1's "developed  total=N" line.
func developedTotal(body []byte) (int, error) {
	i := bytes.Index(body, []byte("developed "))
	if i < 0 {
		return 0, fmt.Errorf("figures page has no developed-group roster line")
	}
	rest := body[i:]
	j := bytes.Index(rest, []byte("total="))
	if j < 0 {
		return 0, fmt.Errorf("figures page roster line has no total")
	}
	rest = rest[j+len("total="):]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	return strconv.Atoi(string(rest[:end]))
}

func (w *figuresLive) run(ctx context.Context, tr *tracer) (*outcome, error) {
	out := newOutcome()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	base, err := getFigures(ctx, hc, w.sys.base)
	if err != nil {
		return nil, err
	}
	historyStart := totalRows(w.sys.rowCounts())

	// The reader runs until the writer is done and every marker the
	// writer got acknowledged has had two more pages to show up in.
	stop := make(chan struct{})
	type readerResult struct {
		pages []page
		err   error
	}
	done := make(chan readerResult, 1)
	go func() {
		var r readerResult
		root := tr.start("loadgen.reader", 0)
		defer func() { tr.end(root); done <- r }()
		extra := 0
		for extra < 2 {
			select {
			case <-stop:
				extra++
			default:
			}
			id := tr.start("figures.get", root)
			p, err := getFigures(ctx, hc, w.sys.base)
			tr.end(id)
			if err != nil {
				r.err = err
				return
			}
			r.pages = append(r.pages, p)
		}
	}()
	live := runPhase(ctx, w.sys.base, phase{ops: w.live, rate: openRateFigures, dur: w.cfg.timed, clients: 1, postSpan: "collector.post_batch"}, tr)
	liveEnd := time.Now()
	close(stop)
	rd := <-done
	if rd.err != nil {
		return nil, fmt.Errorf("reader: %w", rd.err)
	}

	var refresh []float64
	for _, p := range rd.pages {
		if !p.end.After(liveEnd) {
			refresh = append(refresh, ms(p.end.Sub(p.start)))
		}
	}
	var lags []float64
	unseen := 0
	for _, m := range live.markers {
		seen := false
		for _, p := range rd.pages {
			if p.developed >= base.developed+m.index && !p.end.Before(m.at) {
				lags = append(lags, ms(p.end.Sub(m.at)))
				seen = true
				break
			}
		}
		if !seen {
			unseen++
		}
	}
	if len(refresh) == 0 || len(lags) == 0 || len(live.batchMs) == 0 {
		return nil, fmt.Errorf("too few samples: %d pages, %d marker lags, %d acks", len(refresh), len(lags), len(live.batchMs))
	}

	out.attempted = live.attempted + len(rd.pages)
	out.failed = live.failed
	out.rows = live.ackedRows
	w.expect = sumCounts(w.expect, live.acked)
	st := w.sys.stores[0]
	out.check(unseen == 0, "%d acknowledged markers never showed on a page", unseen)
	// The incremental page against the batch figures over the same rows,
	// with the live tail still unsealed.
	out.check(renderString(w.sys.dash.Render()) == renderString(figures.All(st.Merge(), figures.DefaultWindows())),
		"Dashboard.Render() differs from figures.All(store.Merge())")
	if err := w.sys.settle(); err != nil {
		return nil, fmt.Errorf("settle: %w", err)
	}
	got := w.sys.rowCounts()
	out.check(got == w.expect, "store holds %+v, acknowledged uploads add up to %+v", got, w.expect)
	out.oraclesRan = true
	disk, err := w.sys.diskBytes()
	if err != nil {
		return nil, err
	}

	ref, ack, lag, late := summarize(refresh), summarize(live.batchMs), summarize(lags), summarize(live.lateMs)
	// The trickle's rate is the offered one and the reader keeps a CPU
	// busy however fast a page is, so rows ingested per second, and CPU
	// per ingested row, would be constants. The work done here is history
	// rows folded into pages (history grows linearly over the phase), so
	// that is what the rate and the CPU cost are of.
	rendered := float64(len(refresh)) * float64(historyStart+totalRows(got)) / 2
	out.endToEnd["rows_per_s"] = rendered / live.elapsed.Seconds()
	out.endToEnd["cpu_s_per_mrow"] = live.cpu.Seconds() / (rendered / 1e6)
	out.endToEnd["op_p50_ms"] = ref.P50
	out.opMs, out.opLimitMs = refresh, refreshLimitMs
	out.endToEnd["disk_bytes_per_row"] = float64(disk) / float64(totalRows(got))

	out.native["figure_refresh_p90_ms"] = ref.at(0.90)
	out.native["figure_lag_p50_ms"] = lag.P50
	out.native["ack_p50_ms"] = ack.P50
	out.native["ack_p95_ms"] = ack.at(0.95)

	ds := w.sys.dash.Stats()
	out.timing("figure_refresh", ref)
	out.timing("figure_lag", lag)
	out.timing("ack", ack)
	out.diag["ingested_rows_per_s"] = live.rowsPerSec()
	out.diag["history_rows_end"] = float64(totalRows(got))
	out.diag["sealed_chunks"] = float64(ds.SealedChunks)
	out.diag["loadgen.late_p95_ms"] = late.at(0.95)
	out.diag["open_behind_p95_ms"] = summarize(live.behindMs).at(0.95)
	out.diag["loadgen.retries"] = float64(live.retries)
	out.diag["loadgen.throttled_429"] = float64(live.throttled)
	if l := late.at(0.95); l > lateLimitFiguresMs {
		out.invalid = append(out.invalid, fmt.Sprintf("open-loop generator ran late: p95 %.2f ms > %.0f ms", l, lateLimitFiguresMs))
	}
	return out, nil
}

func renderString(reports []*figures.Report) string {
	var b strings.Builder
	for _, r := range reports {
		b.WriteString(r.String())
	}
	return b.String()
}

func (w *figuresLive) teardown() {
	if w.sys != nil {
		w.sys.close()
		w.sys = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}
