package main

// Layer probes: the traced run replays the seed's own batches through
// each layer's public API in isolation, so every per-layer metric is a
// fresh measurement in every traced run, whichever workload it follows.
// Nothing here is a claim about end-to-end speed; these are the unit
// costs the README's interaction table relates to the end-to-end names.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/cluster"
	"natpeek/internal/collector"
	"natpeek/internal/dataset"
	"natpeek/internal/figures"
	"natpeek/internal/heartbeat"
	"natpeek/internal/segment"
	"natpeek/internal/wire"
)

func runProbes(ctx context.Context, cfg runConfig) (map[string]float64, error) {
	dir, err := os.MkdirTemp(cfg.scratch, "probes-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ws := generate(genConfig{seed: cfg.seed, batches: cfg.probeBatches, keepItems: cfg.probeBatches})
	m := map[string]float64{}
	probeSpanCost(m)
	probeWire(ws, m)
	hist := probeDataset(ws, m)
	probeHeartbeatLog(m)
	for _, p := range []func() error{
		func() error { return probeHeartbeatUDP(cfg.probeBeats, m) },
		func() error { return probeCollector(ctx, cfg.probePosts, ws, m) },
		func() error { return probeCluster(ctx, dir, cfg.probePosts, ws, m) },
		func() error { return probeSegment(dir, ws, m) },
		func() error { return probeIngest(ctx, dir, cfg, m) },
		func() error { return probeFigures(dir, hist, m) },
	} {
		if err := p(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// medianOf times fn n times and returns the median.
func medianOf(n int, fn func()) time.Duration {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func probeSpanCost(m map[string]float64) {
	const n = 200_000
	tr := newTracer("probe")
	root := tr.start("loadgen.client", 0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.start("collector.post_batch", root))
	}
	m["bench.span_cost_ns"] = float64(time.Since(t0).Nanoseconds()) / n
}

func probeWire(ws *workset, m map[string]float64) {
	rows, bytes := 0, 0
	var bodies [][]byte
	for _, o := range ws.ops {
		bodies = append(bodies, o.body)
		rows += o.rows
		bytes += len(o.body)
	}
	var buf []byte
	enc := medianOf(3, func() {
		for _, items := range ws.items {
			buf = wire.AppendBatch(buf[:0], items)
		}
	})
	var dec wire.Decoder
	decodeAll := func() {
		var it wire.Item
		for _, b := range bodies {
			if err := dec.Reset(b); err != nil {
				panic(fmt.Sprintf("natbench: own batch does not decode: %v", err))
			}
			for {
				if err := dec.Next(&it); err != nil {
					if errors.Is(err, io.EOF) {
						break
					}
					panic(fmt.Sprintf("natbench: own batch does not decode: %v", err))
				}
			}
		}
	}
	decodeAll() // warm the decoder's intern cache and scratch slices
	a0 := mallocs()
	decd := medianOf(3, decodeAll)
	m["wire.encode_ns_per_row"] = float64(enc.Nanoseconds()) / float64(rows)
	m["wire.decode_ns_per_row"] = float64(decd.Nanoseconds()) / float64(rows)
	m["wire.decode_allocs_per_batch"] = float64(mallocs()-a0) / float64(3*len(bodies))
	m["wire.bytes_per_row"] = float64(bytes) / float64(rows)
}

// applyPayload is the store mutation the collector performs for p.
func applyPayload(p *wire.Payload) func(*dataset.Store) {
	return func(st *dataset.Store) {
		switch p.Kind {
		case wire.KindUptime:
			st.Uptime = append(st.Uptime, p.Uptime)
		case wire.KindCapacity:
			st.Capacity = append(st.Capacity, p.Capacity)
		case wire.KindDevices:
			st.Counts = append(st.Counts, p.Count)
			st.Sightings = append(st.Sightings, p.Sightings...)
		case wire.KindWiFi:
			st.WiFi = append(st.WiFi, p.WiFi...)
		case wire.KindFlows:
			st.Flows = append(st.Flows, p.Flows...)
		case wire.KindThroughput:
			st.Throughput = append(st.Throughput, p.Throughput...)
		}
	}
}

// applyAll applies batches[from::step] and returns rows applied.
func applyAll(st dataset.IngestStore, batches [][]wire.Item, from, step int) int {
	rows := 0
	for b := from; b < len(batches); b += step {
		for i := range batches[b] {
			it := &batches[b][i]
			if st.Apply(it.Payload.Router(), it.Key, applyPayload(&it.Payload)) {
				rows += it.Payload.Rows()
			}
		}
	}
	return rows
}

// probeDataset prices the sharded store and returns the merged rows for
// the analysis probes.
func probeDataset(ws *workset, m map[string]float64) *dataset.Store {
	sh := dataset.NewSharded(0)
	codes := countryCodes()
	for i := 0; i < fleetRouters; i++ {
		id, code := routerID(i), codes[i%len(codes)]
		sh.Append(id, func(st *dataset.Store) { st.RouterCountry[id] = code })
	}
	rows := applyAll(sh, ws.items, 0, 1)

	t0 := time.Now()
	applyAll(sh, ws.items, 0, 1) // every key is known now
	m["dataset.dedupe_mark_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(ws.items)*itemsPerBatch)

	var merged *dataset.Store
	d := medianOf(3, func() { merged = sh.Merge() })
	m["dataset.merge_rows_per_s"] = float64(rows) / d.Seconds()

	// Two appliers against one: 2.0 is perfect scaling.
	one := medianOf(3, func() { applyAll(dataset.NewSharded(0), ws.items, 0, 1) })
	two := medianOf(3, func() {
		sh := dataset.NewSharded(0)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() { defer wg.Done(); applyAll(sh, ws.items, g, 2) }()
		}
		wg.Wait()
	})
	m["dataset.apply_ns_per_row"] = float64(one.Nanoseconds()) / float64(rows)
	m["dataset.apply_scaling_p2"] = one.Seconds() / two.Seconds()
	return merged
}

func probeHeartbeatLog(m map[string]float64) {
	const routers, beats = 128, 2000
	log := heartbeat.NewLog()
	t0 := time.Now()
	for b := 0; b < beats; b++ {
		// Every 200th minute skips an hour, so the gap analysis has
		// downtimes to find.
		at := studyStart.Add(time.Duration(b)*heartbeat.Interval + time.Duration(b/200)*time.Hour)
		for r := 0; r < routers; r++ {
			log.Record(routerID(r), at)
		}
	}
	m["heartbeat.record_ns"] = float64(time.Since(t0).Nanoseconds()) / (routers * beats)
	end := studyStart.Add(beats*heartbeat.Interval + 11*time.Hour)
	d := medianOf(5, func() {
		for r := 0; r < routers; r++ {
			log.Downtimes(routerID(r), studyStart, end, heartbeat.DefaultGapThreshold)
		}
	})
	m["heartbeat.downtimes_ms"] = ms(d)
}

// probeHeartbeatUDP paces beats over loopback UDP into a Receiver.
func probeHeartbeatUDP(total int, m map[string]float64) error {
	const (
		senders = 16
		perSec  = 25_000
		burst   = 50
	)
	log := heartbeat.NewLog()
	rx, err := heartbeat.NewReceiver(loopback, log, nil)
	if err != nil {
		return err
	}
	defer rx.Close()
	var ss []*heartbeat.Sender
	for i := 0; i < senders; i++ {
		s, err := heartbeat.NewSender(routerID(i), rx.Addr().String())
		if err != nil {
			return err
		}
		defer s.Close()
		ss = append(ss, s)
	}
	received := func() int {
		n := 0
		for i := 0; i < senders; i++ {
			n += log.Count(routerID(i))
		}
		return n
	}
	t0 := time.Now()
	for i := 0; i < total; i++ {
		if i%burst == 0 {
			if wait := time.Until(t0.Add(time.Duration(i) * time.Second / perSec)); wait > 0 {
				time.Sleep(wait)
			}
		}
		// A full socket buffer drops the datagram; that is the drop
		// share being measured, not an error.
		_ = ss[i%senders].Send(time.Now())
	}
	sent := time.Since(t0)
	// Let the receiver drain what the kernel still holds.
	for last, idle := -1, 0; idle < 5; {
		time.Sleep(10 * time.Millisecond)
		if n := received(); n == last {
			idle++
		} else {
			last, idle = n, 0
		}
	}
	got := received()
	m["heartbeat.recv_per_s"] = float64(got) / sent.Seconds()
	m["heartbeat.drop_share"] = 1 - float64(got)/float64(total)
	return nil
}

// postSeries sends ops one after another over one connection and returns
// the per-op latencies in microseconds.
func postSeries(ctx context.Context, base string, ops []op, check func(*op, collector.BatchResult) bool) ([]float64, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	us := make([]float64, 0, len(ops))
	for i := range ops {
		t0 := time.Now()
		out := send(ctx, hc, base, &ops[i])
		us = append(us, float64(time.Since(t0).Microseconds()))
		if !out.ok || !check(&ops[i], out.res) {
			return nil, fmt.Errorf("probe POST %d to %s: unexpected result %+v", i, base, out.res)
		}
	}
	return us, nil
}

func allApplied(o *op, r collector.BatchResult) bool { return r.Applied == o.items }
func allDup(o *op, r collector.BatchResult) bool     { return r.Duplicates == o.items && r.Applied == 0 }

// jsonBatch re-encodes a typed batch as the JSON /v1/batch envelope.
func jsonBatch(items []wire.Item, rekey string) (op, error) {
	out := make([]collector.BatchItem, len(items))
	for i := range items {
		body, err := items[i].Payload.JSONBody()
		if err != nil {
			return op{}, err
		}
		out[i] = collector.BatchItem{Endpoint: items[i].Endpoint, Key: items[i].Key + rekey, Body: body}
	}
	body, err := json.Marshal(out)
	return op{path: "/v1/batch", contentType: "application/json", body: body, items: len(items)}, err
}

// probeCollector prices one collector over an in-memory store, so the
// segment layer is out of the picture: NPB1, JSON and all-duplicate
// batches, one connection, one batch in flight.
func probeCollector(ctx context.Context, probePosts int, ws *workset, m map[string]float64) error {
	srv, err := collector.NewServer(loopback, loopback, dataset.NewSharded(0))
	if err != nil {
		return err
	}
	defer srv.Close()
	var applied, dups atomic.Int64
	srv.SetIngestObserver(func(_, _, _ string, ok bool) {
		if ok {
			applied.Add(1)
		} else {
			dups.Add(1)
		}
	})
	base := "http://" + srv.HTTPAddr()
	if _, err := postSeries(ctx, base, ws.ops[probePosts:probePosts+20], allApplied); err != nil { // warm-up
		return err
	}
	a0 := mallocs()
	npb1, err := postSeries(ctx, base, ws.ops[:probePosts], allApplied)
	if err != nil {
		return err
	}
	m["collector.allocs_per_batch"] = float64(mallocs()-a0) / float64(probePosts)
	dup, err := postSeries(ctx, base, ws.ops[:probePosts], allDup)
	if err != nil {
		return err
	}
	var jsonOps []op
	for _, items := range ws.items[:probePosts] {
		o, err := jsonBatch(items, ":json")
		if err != nil {
			return err
		}
		jsonOps = append(jsonOps, o)
	}
	jsn, err := postSeries(ctx, base, jsonOps, allApplied)
	if err != nil {
		return err
	}
	m["collector.post_npb1_us_per_batch"] = median(npb1)
	m["collector.post_dup_us_per_batch"] = median(dup)
	m["collector.post_json_us_per_batch"] = median(jsn)
	m["collector.applied"] = float64(applied.Load())
	m["collector.duplicates"] = float64(dups.Load())
	return nil
}

// probeCluster prices the front hop and replication against the direct
// POST above (in-memory node stores, same batches), then grows the R=2
// cluster by a fourth node under load.
func probeCluster(ctx context.Context, dir string, probePosts int, ws *workset, m map[string]float64) error {
	ring := cluster.NewRing([]string{"node-0", "node-1", "node-2"}, cluster.DefaultVnodes)
	const lookups = 200_000
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		if len(ring.Lookup(routerID(i%fleetRouters), clusterReplication)) != clusterReplication {
			return fmt.Errorf("ring lookup returned too few owners")
		}
	}
	m["cluster.ring_lookup_ns"] = float64(time.Since(t0).Nanoseconds()) / lookups

	r1, err := frontSeries(ctx, filepath.Join(dir, "r1"), 1, probePosts, ws)
	if err != nil {
		return err
	}
	// A node's graceful shutdown can time out on a peer's in-flight
	// gossip; the series is measured by then, so that is not an error.
	r1.sys.close()
	r2, err := frontSeries(ctx, filepath.Join(dir, "r2"), clusterReplication, probePosts, ws)
	if err != nil {
		return err
	}
	sys := r2.sys
	defer sys.close()
	m["cluster.front_hop_us_per_batch"] = r1.us - m["collector.post_npb1_us_per_batch"]
	m["cluster.replicate_us_per_batch"] = r2.us - r1.us
	m["cluster.front_allocs_per_batch"] = r2.allocs
	m["cluster.gossip_converge_ms"] = ms(r2.converge)
	journal, rows, most := 0, 0, 0
	for i, nd := range sys.nodes {
		_, b, _ := nd.JournalStats()
		journal += b
		n := totalRows(sys.stores[i].RowCounts())
		rows += n
		most = max(most, n)
	}
	m["cluster.journal_bytes_per_row"] = float64(journal) / float64(rows)
	m["cluster.placement_skew"] = float64(most) / (float64(rows) / float64(len(sys.nodes)))
	return probeJoin(ctx, filepath.Join(dir, "r2"), sys, ws.ops[probePosts+20:], m)
}

// frontResult is one series of batches through a fresh cluster's front.
type frontResult struct {
	sys      *system // still running; the caller closes it
	us       float64 // median microseconds per batch
	allocs   float64 // process-wide mallocs per batch
	converge time.Duration
}

// frontSeries starts a 3-node cluster and posts probePosts batches
// through its front, one at a time.
func frontSeries(ctx context.Context, dir string, replication, probePosts int, ws *workset) (frontResult, error) {
	t0 := time.Now()
	sys, err := startCluster(dir, clusterNodes, replication)
	if err != nil {
		return frontResult{}, err
	}
	res := frontResult{sys: sys, converge: time.Since(t0)}
	if _, err := postSeries(ctx, sys.base, ws.ops[probePosts:probePosts+20], allApplied); err != nil { // warm-up
		sys.close()
		return frontResult{}, err
	}
	a0 := mallocs()
	us, err := postSeries(ctx, sys.base, ws.ops[:probePosts], allApplied)
	if err != nil {
		sys.close()
		return frontResult{}, err
	}
	res.us, res.allocs = median(us), float64(mallocs()-a0)/float64(probePosts)
	return res, nil
}

// probeJoin adds a fourth node while one client keeps posting: rows the
// joiner pulled per second of JoinRing, and the longest any write was
// held up (a fenced batch is retried every few milliseconds, not after
// the advertised Retry-After second, so the window itself is measured).
func probeJoin(ctx context.Context, dir string, sys *system, load []op, m map[string]float64) error {
	var peers []string
	for _, nd := range sys.nodes {
		peers = append(peers, nd.CtrlAddr())
	}
	stop := make(chan struct{})
	type loadResult struct {
		worstMs float64
		err     error
	}
	done := make(chan loadResult, 1)
	go func() {
		var r loadResult
		defer func() { done <- r }()
		hc := newHTTPClient()
		defer hc.CloseIdleConnections()
		for i := range load {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			for {
				a := sendAttempt(ctx, hc, sys.base, &load[i])
				if a.err != nil {
					r.err = a.err
					return
				}
				if a.status/100 == 2 {
					break
				}
				if a.status != http.StatusTooManyRequests && a.status < 500 {
					r.err = fmt.Errorf("join probe: POST status %d", a.status)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			r.worstMs = max(r.worstMs, ms(time.Since(t0)))
		}
	}()
	joiner, err := sys.addNode(dir, peers, true)
	if err != nil {
		close(stop)
		<-done
		return err
	}
	jctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	t0 := time.Now()
	err = joiner.JoinRing(jctx)
	took := time.Since(t0)
	close(stop)
	writer := <-done
	if err != nil {
		return fmt.Errorf("JoinRing: %w", err)
	}
	if writer.err != nil {
		return writer.err
	}
	moved := totalRows(sys.stores[len(sys.stores)-1].RowCounts())
	m["cluster.transfer_rows_per_s"] = float64(moved) / took.Seconds()
	m["cluster.fence_window_ms"] = writer.worstMs
	return nil
}

// probeSegment prices flush, reopen, merge and tail on an isolated store.
func probeSegment(dir string, ws *workset, m map[string]float64) error {
	dir = filepath.Join(dir, "segment")
	opt := segment.Options{Dir: dir, FlushRows: 1 << 30, NoCompaction: true}
	st, err := segment.Open(opt)
	if err != nil {
		return err
	}
	const flushes = 4
	per := len(ws.items) / (flushes + 1)
	var rates []float64
	total := 0
	for f := 0; f < flushes; f++ {
		rows := applyAll(st, ws.items[f*per:(f+1)*per], 0, 1)
		total += rows
		t0 := time.Now()
		if err := st.Flush(); err != nil {
			st.Close()
			return err
		}
		rates = append(rates, float64(rows)/time.Since(t0).Seconds())
	}
	m["segment.flush_rows_per_s"] = median(rates)
	applyAll(st, ws.items[flushes*per:flushes*per+per/8], 0, 1) // an unsealed tail
	m["segment.tail_ms"] = ms(medianOf(5, func() { st.Tail() }))
	if err := st.Close(); err != nil {
		return err
	}

	if err := probeCompaction(filepath.Join(filepath.Dir(dir), "compact"), ws, m); err != nil {
		return err
	}

	var re *segment.Store
	open := medianOf(5, func() {
		if re != nil {
			re.Close()
		}
		re, err = segment.Open(opt)
	})
	if err != nil {
		return err
	}
	defer re.Close()
	m["segment.open_ms"] = ms(open)
	rows := totalRows(re.RowCounts())
	a0 := allocBytes()
	d := medianOf(3, func() { re.Merge() })
	m["segment.merge_alloc_mb"] = float64(allocBytes()-a0) / 3 / (1 << 20)
	m["segment.merge_rows_per_s"] = float64(rows) / d.Seconds()
	return nil
}

// probeCompaction prices one compaction pass. A flush that leaves more
// than CompactAt segments live runs a pass before it returns, so the
// pass costs what that flush takes beyond an ordinary one.
func probeCompaction(dir string, ws *workset, m map[string]float64) error {
	st, err := segment.Open(segment.Options{Dir: dir, FlushRows: 1 << 30})
	if err != nil {
		return err
	}
	defer st.Close()
	n := segment.DefaultCompactAt + 1
	per := len(ws.items) / n
	var plain []float64
	for f := 0; f < n; f++ {
		applyAll(st, ws.items[f*per:(f+1)*per], 0, 1)
		t0 := time.Now()
		if err := st.Flush(); err != nil {
			return err
		}
		if d := time.Since(t0).Seconds(); f < n-1 {
			plain = append(plain, d)
		} else {
			m["segment.compact_s"] = max(d-median(plain), 0)
		}
	}
	if got := len(st.Segments()); got >= n {
		return fmt.Errorf("compaction probe: %d segments live after %d flushes, no pass ran", got, n)
	}
	return nil
}

// probeIngest is a short ingest-single against a segment-backed
// collector — saturate, then the frozen open-loop rate — watched from
// outside: seal times through Subscribe, segment files by polling the
// directory. It yields the flush/compaction behaviour under load and the
// load generator's own error terms.
func probeIngest(ctx context.Context, dir string, cfg runConfig, m map[string]float64) error {
	seed, probeBatches, probeIngestPhase := cfg.seed, cfg.probeBatches, cfg.probeIngestPhase
	dir = filepath.Join(dir, "ingest")
	sys, err := startSingle(dir, false)
	if err != nil {
		return err
	}
	defer sys.close()
	st := sys.stores[0]
	closed := generate(genConfig{seed: seed, firstBatch: probeBatches, batches: batchesFor(closedRateSingle * probeIngestPhase.Seconds())})
	opened := generate(genConfig{seed: seed, firstBatch: 4 * probeBatches, batches: batchesFor(openRateSingle * probeIngestPhase.Seconds())})

	type seal struct {
		at   time.Time
		rows int
	}
	var (
		mu    sync.Mutex
		seals []seal
	)
	if err := st.Subscribe(func(c *dataset.Store) {
		n := storeRows(c)
		mu.Lock()
		seals = append(seals, seal{time.Now(), n})
		mu.Unlock()
	}); err != nil {
		return err
	}
	// Watch the directory: every segment file ever seen counts as bytes
	// written; a drop in the live count is a compaction.
	watch := newDirWatch(dir)
	go watch.run()

	t0 := time.Now()
	a := runPhase(ctx, sys.base, phase{ops: closed.ops, clients: clients(), postSpan: "collector.post_batch"}, nil)
	if err := st.Flush(); err != nil { // the open loop starts from a drained flusher, as the workload's does
		return err
	}
	openStart := time.Now()
	b := runPhase(ctx, sys.base, phase{ops: opened.ops, rate: openRateSingle, dur: probeIngestPhase, clients: clients(), postSpan: "collector.post_batch"}, nil)
	if err := st.Flush(); err != nil {
		return err
	}
	elapsed := time.Since(t0)
	written, compactions := watch.stop()
	live, err := dirBytes(dir)
	if err != nil {
		return err
	}
	if b.failed > 0 || len(b.batchMs) == 0 {
		return fmt.Errorf("ingest probe: %d of %d open-loop operations failed", b.failed, b.attempted)
	}

	// A flush is busy from when it could start — the previous seal, or as
	// long before its own seal as the isolated flush rate needs for its
	// rows, whichever is later — until its seal.
	rate := m["segment.flush_rows_per_s"]
	var busy time.Duration
	type window struct{ from, to time.Time }
	var windows []window
	prev := t0
	mu.Lock()
	for _, s := range seals {
		from := s.at.Add(-time.Duration(float64(s.rows) / rate * float64(time.Second)))
		if from.Before(prev) {
			from = prev
		}
		busy += s.at.Sub(from)
		windows = append(windows, window{from, s.at})
		prev = s.at
	}
	nseals := len(seals)
	mu.Unlock()
	var during []float64
	for i, lat := range b.batchMs {
		from := openStart.Add(time.Duration(b.starts[i] * float64(time.Millisecond)))
		to := from.Add(time.Duration(lat * float64(time.Millisecond)))
		for _, w := range windows {
			if from.Before(w.to) && to.After(w.from) {
				during = append(during, lat)
				break
			}
		}
	}
	if len(during) == 0 {
		during = b.batchMs
	}
	ack := summarize(b.batchMs)
	m["segment.flush_count"] = float64(nseals)
	m["segment.flush_busy_share"] = busy.Seconds() / elapsed.Seconds()
	m["segment.ack_p95_during_flush_ms"] = summarize(during).at(0.95)
	m["segment.compact_count"] = float64(compactions)
	m["segment.write_amp"] = float64(written) / float64(live)
	m["loadgen.saturated_rows_per_s"] = a.rowsPerSec()
	m["loadgen.late_p95_ms"] = summarize(b.lateMs).at(0.95)
	m["loadgen.retries"] = float64(b.retries)
	m["loadgen.throttled_429"] = float64(b.throttled)
	m["loadgen.ack_p99_ms"] = ack.at(0.99)
	return nil
}

// dirWatch polls a segment directory.
type dirWatch struct {
	dir   string
	quit  chan struct{}
	done  chan struct{}
	seen  map[string]int64 // segment file → size when first seen
	live  int
	drops int
}

func newDirWatch(dir string) *dirWatch {
	return &dirWatch{dir: dir, quit: make(chan struct{}), done: make(chan struct{}), seen: map[string]int64{}}
}

func (w *dirWatch) scan() {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return // the next poll tries again
	}
	live := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".seg" {
			continue
		}
		live++
		if _, ok := w.seen[e.Name()]; !ok {
			if fi, err := e.Info(); err == nil {
				w.seen[e.Name()] = fi.Size()
			}
		}
	}
	if live < w.live {
		w.drops++
	}
	w.live = live
}

func (w *dirWatch) run() {
	defer close(w.done)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-w.quit:
			return
		case <-tick.C:
			w.scan()
		}
	}
}

// stop ends the polling and returns the bytes of every segment file ever
// seen and the number of compactions.
func (w *dirWatch) stop() (written int64, compactions int) {
	close(w.quit)
	<-w.done
	w.scan()
	for _, n := range w.seen {
		written += n
	}
	return written, w.drops
}

// probeFigures prices the analysis fold and the figure code over the
// rows the dataset probe merged, then a dashboard render over the same
// rows sealed into segments.
func probeFigures(dir string, hist *dataset.Store, m map[string]float64) error {
	rows := storeRows(hist)
	var p *analysis.Partial
	d := medianOf(3, func() { p = analysis.NewPartial(); p.Fold(hist) })
	m["analysis.fold_rows_per_s"] = float64(rows) / d.Seconds()
	m["analysis.clone_ms"] = ms(medianOf(5, func() { p.Clone() }))
	hb := heartbeat.NewLog()
	m["analysis.store_ms"] = ms(medianOf(5, func() { p.Store(hb) }))
	m["analysis.flow_compaction_ratio"] = float64(p.RawFlowRows()) / float64(max(p.FlowAggregates(), 1))
	win := figures.DefaultWindows()
	m["figures.all_ms"] = ms(medianOf(5, func() { figures.All(hist, win) }))

	dir = filepath.Join(dir, "figures")
	if _, err := writeStudy(dir, hist, 4); err != nil {
		return err
	}
	st, err := openStore(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	dash, err := figures.NewDashboard(st, win)
	if err != nil {
		return err
	}
	dash.Render()
	a0 := allocBytes()
	m["figures.render_ms"] = ms(medianOf(5, func() { dash.Render() }))
	m["figures.render_alloc_mb"] = float64(allocBytes()-a0) / 5 / (1 << 20)
	return nil
}
