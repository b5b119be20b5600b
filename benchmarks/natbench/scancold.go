package main

// scan-cold: read-only. Set-up writes a fixed simulated study into a
// segment directory as sealed, uncompacted segments; the timed loop
// reopens it cold and rebuilds every exhibit, both incrementally
// (dashboard over sealed segments) and in batch (merge, then figures).

import (
	"context"
	"crypto/sha256"
	"os"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/figures"
	"natpeek/internal/heartbeat"
	"natpeek/internal/segment"
	"natpeek/internal/world"
)

type scanCold struct {
	cfg   runConfig
	dir   string
	study *dataset.Store
	rows  int
	want  [32]byte // hash of the exhibits over the in-memory study
}

func (w *scanCold) prepare() error {
	wd := world.Build(world.Config{Seed: w.cfg.seed, Scale: w.cfg.studyScale, TrafficHomes: w.cfg.studyTrafficHomes})
	if err := wd.Run(); err != nil {
		return err
	}
	w.study = wd.Store
	trimStudy(w.study, w.cfg.studyShape)
	w.want = reportHash(figures.All(w.study, figures.DefaultWindows()))
	return nil
}

// setup is what the system does before a cold scan can begin: sealing
// the study into segment files.
func (w *scanCold) setup(ctx context.Context) error {
	var err error
	if w.dir, err = os.MkdirTemp(w.cfg.scratch, w.cfg.workload+"-"); err != nil {
		return err
	}
	w.rows, err = writeStudy(w.dir, w.study, studySegments)
	return err
}

// trimStudy cuts every row kind to the fixed shape. The simulated
// deployment's size swings by a tenth from seed to seed (a handful of
// traffic homes produce most rows); a fixed length per kind, below what
// any seed produces, makes seeds equivalent inputs, so run-to-run spread
// measures the system and not the draw.
func trimStudy(st *dataset.Store, studyShape dataset.RowCounts) {
	st.Uptime = st.Uptime[:min(len(st.Uptime), studyShape.Uptime)]
	st.Capacity = st.Capacity[:min(len(st.Capacity), studyShape.Capacity)]
	st.Counts = st.Counts[:min(len(st.Counts), studyShape.Counts)]
	st.Sightings = st.Sightings[:min(len(st.Sightings), studyShape.Sightings)]
	st.WiFi = st.WiFi[:min(len(st.WiFi), studyShape.WiFi)]
	st.Flows = st.Flows[:min(len(st.Flows), studyShape.Flows)]
	st.Throughput = st.Throughput[:min(len(st.Throughput), studyShape.Throughput)]
}

// writeStudy seals st into dir as n segments: contiguous slices of every
// row kind, roster in the first, no compaction.
func writeStudy(dir string, st *dataset.Store, n int) (rows int, err error) {
	s, err := segment.Open(segment.Options{Dir: dir, FlushRows: 1 << 30, NoCompaction: true})
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		s.Append("study", func(dst *dataset.Store) {
			if i == 0 {
				for id, code := range st.RouterCountry {
					dst.RouterCountry[id] = code
				}
			}
			dst.Uptime = append(dst.Uptime, part(st.Uptime, i, n)...)
			dst.Capacity = append(dst.Capacity, part(st.Capacity, i, n)...)
			dst.Counts = append(dst.Counts, part(st.Counts, i, n)...)
			dst.Sightings = append(dst.Sightings, part(st.Sightings, i, n)...)
			dst.WiFi = append(dst.WiFi, part(st.WiFi, i, n)...)
			dst.Flows = append(dst.Flows, part(st.Flows, i, n)...)
			dst.Throughput = append(dst.Throughput, part(st.Throughput, i, n)...)
		})
		if err := s.Flush(); err != nil {
			s.Close()
			return 0, err
		}
	}
	rows = totalRows(s.RowCounts())
	return rows, s.Close()
}

func part[T any](s []T, i, n int) []T { return s[i*len(s)/n : (i+1)*len(s)/n] }

func reportHash(reports []*figures.Report) [32]byte {
	return sha256.Sum256([]byte(renderString(reports)))
}

// loadHeartbeats copies the study's heartbeat log into a reopened store:
// segments do not carry heartbeats (the CSV path persists them), and the
// availability exhibits need them to do real work.
func loadHeartbeats(dst, src *heartbeat.Log) {
	for _, id := range src.Routers() {
		for _, r := range src.Runs(id) {
			dst.RecordRun(id, r)
		}
	}
}

func (w *scanCold) run(ctx context.Context, tr *tracer) (*outcome, error) {
	out := newOutcome()
	win := figures.DefaultWindows()
	var reopenS, coldMs, scanRate []float64
	cpu0, t0 := cpuTime(), time.Now()
	iters := 0
	root := tr.start("loadgen.scan", 0)
	for ; iters < 3 || time.Since(t0) < w.cfg.timed; iters++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var (
			st   *segment.Store
			dash *figures.Dashboard
			err  error
		)
		a := time.Now()
		tr.in("segment.open", root, func(int) {
			st, err = segment.Open(segment.Options{Dir: w.dir, FlushRows: flushRows, NoCompaction: true})
		})
		if err != nil {
			return nil, err
		}
		open := time.Since(a)
		loadHeartbeats(st.HeartbeatLog(), w.study.Heartbeats)

		b := time.Now()
		// NewDashboard is Subscribe plus Partial.Fold over every sealed
		// segment: segment decode and the analysis fold, nothing else.
		tr.in("analysis.fold_sealed", root, func(int) { dash, err = figures.NewDashboard(st, win) })
		if err != nil {
			st.Close()
			return nil, err
		}
		var inc []*figures.Report
		tr.in("figures.render", root, func(int) { inc = dash.Render() })
		cold := open + time.Since(b)

		c := time.Now()
		var merged *dataset.Store
		tr.in("segment.merge", root, func(int) { merged = st.Merge() })
		merge := time.Since(c)
		var batch []*figures.Report
		tr.in("figures.all", root, func(int) { batch = figures.All(merged, win) })
		tr.in("segment.close", root, func(int) { err = st.Close() })
		if err != nil {
			return nil, err
		}

		out.check(reportHash(inc) == w.want, "iteration %d: incremental exhibits differ from the in-memory study's", iters)
		out.check(reportHash(batch) == w.want, "iteration %d: merged exhibits differ from the in-memory study's", iters)
		reopenS = append(reopenS, open.Seconds())
		coldMs = append(coldMs, ms(cold))
		scanRate = append(scanRate, float64(w.rows)/(open+merge).Seconds())
	}
	tr.end(root)
	cpu, elapsed := cpuTime()-cpu0, time.Since(t0)
	out.oraclesRan = true
	out.attempted += iters
	out.rows = iters * w.rows

	disk, err := dirBytes(w.dir)
	if err != nil {
		return nil, err
	}
	reopen, cold := summarize(reopenS), summarize(coldMs)
	out.endToEnd["rows_per_s"] = median(scanRate)
	out.endToEnd["cpu_s_per_mrow"] = cpu.Seconds() / (float64(out.rows) / 1e6)
	out.endToEnd["op_p50_ms"] = cold.P50
	out.opMs, out.opLimitMs = coldMs, coldLimitMs
	out.endToEnd["disk_bytes_per_row"] = float64(disk) / float64(w.rows)

	out.native["reopen_s"] = reopen.P50

	out.timing("cold_figures", cold)
	out.diag["sealed_rows"] = float64(w.rows)
	out.diag["loop_s"] = elapsed.Seconds()
	return out, nil
}

func (w *scanCold) teardown() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}
