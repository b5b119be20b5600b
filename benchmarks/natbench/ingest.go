package main

// ingest-cluster and ingest-single: the same pre-encoded NPB1 batches,
// open loop at a frozen rate and closed loop to saturation, once through
// the front and three replicated nodes and once straight at one
// collector (with a JSON share and redeliveries the cluster run has not).

import (
	"context"
	"fmt"
	"os"

	"natpeek/internal/dataset"
)

type ingest struct {
	cfg     runConfig
	cluster bool

	warm, closed, opened *workset

	dir    string
	sys    *system
	expect dataset.RowCounts // what the stores must hold after the run
}

func (w *ingest) postSpan() string {
	if w.cluster {
		return "cluster.front_post"
	}
	return "collector.post_batch"
}

// rates returns the closed loop's work, in rows per second of run
// length, and the open loop's offered rate.
func (w *ingest) rates() (closedWork, open float64) {
	if w.cluster {
		return closedRateCluster * closedShareCluster, openRateCluster
	}
	return closedRateSingle * closedShareSingle, openRateSingle
}

func (w *ingest) prepare() error {
	secs := w.cfg.timed.Seconds()
	closed, open := w.rates()
	gc := genConfig{seed: w.cfg.seed, batches: w.cfg.warmupBatches}
	if !w.cluster {
		gc.directShare, gc.redeliver = directShare, redeliverShare
	}
	w.warm = generate(gc)
	gc.firstBatch, gc.batches = gc.firstBatch+gc.batches, batchesFor(closed*secs)
	w.closed = generate(gc)
	// Every round's open window gets a pool of its own, with a batch to spare.
	gc.firstBatch, gc.batches = gc.firstBatch+gc.batches, rounds*batchesFor(open*secs/2/rounds)
	w.opened = generate(gc)
	return nil
}

func (w *ingest) setup(ctx context.Context) error {
	var err error
	if w.dir, err = os.MkdirTemp(w.cfg.scratch, w.cfg.workload+"-"); err != nil {
		return err
	}
	if w.cluster {
		w.sys, err = startCluster(w.dir, clusterNodes, clusterReplication)
	} else {
		w.sys, err = startSingle(w.dir, false)
	}
	if err != nil {
		return err
	}
	n, err := registerFleet(ctx, w.sys.base, countryCodes())
	if err != nil {
		return err
	}
	// Warm-up: every client connection (and, behind the front, every
	// forward and replication connection) is open and every pool primed
	// before the timed region.
	res := runPhase(ctx, w.sys.base, phase{ops: w.warm.ops, clients: clients(), postSpan: w.postSpan()}, nil)
	if res.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d operations failed", res.failed, res.attempted)
	}
	w.expect = sumCounts(dataset.RowCounts{Routers: n}, res.acked)
	return nil
}

// run is `rounds` rounds of an open-loop window at the frozen rate and
// then a closed-loop burst over a fixed share of the closed pool, each
// followed by a flush and a compaction pass. Interleaved, both loops see
// the whole run: the store as it grows (a flush and a compaction cost
// more the more rows the store holds) and whatever the machine does over
// those twenty-odd seconds, not each its own half. The work is fixed:
// every run makes the system flush and compact the same rows.
func (w *ingest) run(ctx context.Context, tr *tracer) (*outcome, error) {
	out := newOutcome()
	_, openRate := w.rates()
	window := w.cfg.timed / 2 / rounds
	open, closed := &phaseResult{}, &phaseResult{}
	slice := func(ops []op, k int) []op { return ops[k*len(ops)/rounds : (k+1)*len(ops)/rounds] }
	for k := 0; k < rounds; k++ {
		o := runPhase(ctx, w.sys.base, phase{ops: slice(w.opened.ops, k), rate: openRate, dur: window,
			clients: clients(), postSpan: w.postSpan()}, tr)
		open.merge(o)
		if err := w.sys.settle(); err != nil {
			return nil, fmt.Errorf("settle: %w", err)
		}
		// The burst's flushes and compactions are on its CPU clock and
		// off its wall clock: what the burst leaves undone, the settle
		// after it pays for where cpu_s_per_mrow sees it, and the rate is
		// that of acknowledging rows, as a fleet sees it. One long
		// saturated phase does not repeat: ingest outruns the flusher,
		// and what piles up differs from run to run and feeds back.
		cpu0 := cpuTime()
		c := runPhase(ctx, w.sys.base, phase{ops: slice(w.closed.ops, k), clients: clients(), postSpan: w.postSpan()}, tr)
		if err := w.sys.settle(); err != nil {
			return nil, fmt.Errorf("settle: %w", err)
		}
		closed.merge(c)
		closed.cpu += cpuTime() - cpu0 - c.cpu // merge added the burst's own
	}
	if len(open.batchMs) == 0 || len(closed.batchMs) == 0 {
		return nil, fmt.Errorf("no batch was acknowledged (open %d, closed %d)", len(open.batchMs), len(closed.batchMs))
	}

	disk, err := w.sys.diskBytes()
	if err != nil {
		return nil, err
	}
	w.expect = sumCounts(w.expect, sumCounts(open.acked, closed.acked))
	got := w.sys.rowCounts()

	out.attempted = open.attempted + closed.attempted
	out.failed = open.failed + closed.failed
	out.rows = open.ackedRows + closed.ackedRows
	// Zero lost, zero duplicated: every acknowledged row is in exactly
	// one store, and nothing else is. (Redelivered batches were checked
	// one by one as they were refused.)
	out.check(got == w.expect, "stores hold %+v, acknowledged uploads add up to %+v", got, w.expect)
	out.oraclesRan = true

	ack, sat, late := summarize(open.batchMs), summarize(closed.batchMs), summarize(open.lateMs)
	out.endToEnd["rows_per_s"] = closed.rowsPerSec()
	out.endToEnd["cpu_s_per_mrow"] = closed.cpuPerMrow()
	out.endToEnd["op_p50_ms"] = ack.P50
	out.opMs, out.opLimitMs, out.opFailed = open.batchMs, ackLimitMs, open.failed
	out.endToEnd["disk_bytes_per_row"] = float64(disk) / float64(totalRows(got))

	out.native["ack_p95_ms"] = ack.at(0.95)
	out.native["saturated_ack_p50_ms"] = sat.P50

	out.timing("ack", ack)
	out.timing("saturated_ack", sat)
	out.diag["open_rows_per_s"] = open.rowsPerSec()
	out.diag["open_cpu_s_per_mrow"] = open.cpuPerMrow()
	out.diag["loadgen.late_p95_ms"] = late.at(0.95)
	out.diag["open_behind_p95_ms"] = summarize(open.behindMs).at(0.95)
	out.diag["loadgen.retries"] = float64(open.retries + closed.retries)
	out.diag["loadgen.throttled_429"] = float64(open.throttled + closed.throttled)
	if l := late.at(0.95); l > lateLimitMs {
		out.invalid = append(out.invalid, fmt.Sprintf("open-loop generator ran late: p95 %.2f ms > %.0f ms", l, lateLimitMs))
	}
	return out, nil
}

func (w *ingest) teardown() {
	if w.sys != nil {
		w.sys.close() // a close error after the oracles ran changes nothing reported
		w.sys = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}
