package main

// Input generation. Everything the system under test receives is built
// here from the seed, before the timed region: world-shaped rows in
// loadgen.DefaultMix proportions, grouped into 64-item batches with
// unique idempotency keys, and pre-encoded (NPB1 for /v1/batch, JSON for
// the direct /v1/* share) so the timed loops only send bytes.

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/domains"
	"natpeek/internal/loadgen"
	"natpeek/internal/mac"
	"natpeek/internal/rng"
	"natpeek/internal/wire"
)

const (
	fleetRouters  = 512 // synthetic fleet size
	itemsPerBatch = 64
	// flowsPerItem / samplesPerItem are loadgen's payload sizes.
	flowsPerItem   = 8
	samplesPerItem = 6
	// namedDomainShare of flow rows carry a whitelisted domain (the
	// paper's whitelist covers ≈65% of volume); the rest carry a
	// per-flow anonymised hash, which the incremental projection
	// cannot collapse.
	namedDomainShare = 0.65
)

var studyStart = time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)

func routerID(i int) string { return fmt.Sprintf("load-%05d", i) }

// op is one pre-encoded request: an NPB1 batch POST or one direct JSON
// upload.
type op struct {
	path        string // "/v1/batch" or the direct endpoint
	contentType string
	key         string // Idempotency-Key header (direct uploads only)
	body        []byte
	items       int
	rows        int
	counts      dataset.RowCounts // what a first delivery adds to the store
	redeliver   bool              // send the same bytes once more after the ack
	marker      int               // figures-live: 1-based index of a freshness marker, else 0
}

// workset is a generated run input.
type workset struct {
	ops   []op
	items [][]wire.Item // typed form of the first keepItems batches, for the layer probes
	rows  int
}

type genConfig struct {
	seed        uint64
	firstBatch  int // offsets keys and timestamps so worksets of one seed never collide
	batches     int
	directShare float64 // share of uploads shipped as direct JSON POSTs
	redeliver   float64 // share of batches redelivered once
	keepItems   int
}

// batchesFor sizes a workset to hold at least rows rows.
func batchesFor(rows float64) int {
	// loadgen.DefaultMix averages 43/8.5 rows per upload.
	const rowsPerBatch = itemsPerBatch * 43 / 8.5
	return int(rows/rowsPerBatch) + 2
}

// generate builds cfg.batches NPB1 batches, each followed by its share
// of direct uploads. Every batch draws from its own child stream, so the
// result does not depend on how the work is split across goroutines.
func generate(cfg genConfig) *workset {
	root := rng.New(cfg.seed).Child("natbench")
	g := &generator{cfg: cfg, weights: mixWeights(loadgen.DefaultMix), named: domains.All(),
		nonce: "s" + strconv.FormatUint(cfg.seed, 10)}
	g.zipf = rng.NewZipf(len(g.named), 1.1)
	perBatch := make([][]op, cfg.batches)
	items := make([][]wire.Item, min(cfg.keepItems, cfg.batches))
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < cfg.batches; i += workers {
				b := cfg.firstBatch + i
				ops, typed := g.batch(root.ChildN("batch", b), b)
				perBatch[i] = ops
				if i < len(items) {
					items[i] = typed
				}
			}
		}()
	}
	wg.Wait()
	ws := &workset{items: items}
	for _, ops := range perBatch {
		for _, o := range ops {
			ws.rows += o.rows
		}
		ws.ops = append(ws.ops, ops...)
	}
	return ws
}

type generator struct {
	cfg     genConfig
	weights []float64
	named   []domains.Domain
	zipf    *rng.Zipf
	nonce   string
}

// batch builds batch b and the direct uploads that follow it.
func (g *generator) batch(stream *rng.Stream, b int) ([]op, []wire.Item) {
	items := make([]wire.Item, itemsPerBatch)
	var o op
	for j := range items {
		seq := b*itemsPerBatch + j
		router := seq % fleetRouters
		id := routerID(router)
		at := studyStart.Add(time.Duration(seq/fleetRouters) * time.Hour).Add(time.Duration(j%60) * time.Minute)
		p := g.payload(stream, id, router, at)
		items[j] = wire.Item{Endpoint: p.Kind.Endpoint(), Key: id + ":" + g.nonce + ":" + strconv.Itoa(seq), Payload: p}
		addCounts(&o.counts, &p)
		o.rows += p.Rows()
	}
	o.path, o.contentType = "/v1/batch", wire.ContentTypeBinary
	o.body = wire.AppendBatch(nil, items)
	o.items = itemsPerBatch
	o.redeliver = stream.Bool(g.cfg.redeliver)
	ops := []op{o}

	// d/(1-d) direct uploads per batched upload keeps their share of all
	// uploads at d; the running total is split per batch without state.
	perBatch := 0.0
	if d := g.cfg.directShare; d > 0 {
		perBatch = float64(itemsPerBatch) * d / (1 - d)
	}
	for k := 0; k < int(perBatch*float64(b+1))-int(perBatch*float64(b)); k++ {
		router := stream.Intn(fleetRouters)
		id := routerID(router)
		at := studyStart.Add(time.Duration(b/8) * time.Hour).Add(time.Duration(k%60) * time.Minute)
		p := g.payload(stream, id, router, at)
		body, err := p.JSONBody()
		if err != nil {
			panic(fmt.Sprintf("natbench: generated payload does not marshal: %v", err))
		}
		d := op{path: p.Kind.Endpoint(), contentType: "application/json",
			key:  id + ":" + g.nonce + ":d" + strconv.Itoa(b) + "." + strconv.Itoa(k),
			body: body, items: 1, rows: p.Rows()}
		addCounts(&d.counts, &p)
		ops = append(ops, d)
	}
	return ops, items
}

func mixWeights(m loadgen.Mix) []float64 {
	return []float64{m.Uptime, m.Capacity, m.Devices, m.WiFi, m.Flows, m.Throughput}
}

// payload draws one upload; the row shapes are loadgen's.
func (g *generator) payload(s *rng.Stream, id string, router int, at time.Time) wire.Payload {
	var p wire.Payload
	switch s.WeightedChoice(g.weights) {
	case 0:
		p.Kind = wire.KindUptime
		p.Uptime = dataset.UptimeReport{RouterID: id, ReportedAt: at,
			Uptime: time.Duration(s.Intn(14*24*3600)) * time.Second}
	case 1:
		p.Kind = wire.KindCapacity
		p.Capacity = dataset.CapacityMeasure{RouterID: id, MeasuredAt: at,
			UpBps: s.Range(4e5, 1e7), DownBps: s.Range(1e6, 1e8)}
	case 2:
		p.Kind = wire.KindDevices
		p.Count = dataset.DeviceCount{RouterID: id, At: at, Wired: s.Intn(3), W24: s.Intn(6), W5: s.Intn(4)}
		p.Sightings = make([]dataset.DeviceSighting, 1+s.Intn(4))
		for j := range p.Sightings {
			p.Sightings[j] = dataset.DeviceSighting{RouterID: id, At: at,
				Device: mac.FromOUI(0x001CB3, uint32(router*1000+j)),
				Kind:   dataset.ConnKind(s.Intn(3))}
		}
	case 3:
		p.Kind = wire.KindWiFi
		p.WiFi = make([]dataset.WiFiScan, 2)
		for j, band := range []string{"2.4GHz", "5GHz"} {
			p.WiFi[j] = dataset.WiFiScan{RouterID: id, At: at, Band: band,
				Channel: 1 + s.Intn(11), VisibleAPs: s.Intn(25), Clients: s.Intn(6)}
		}
	case 4:
		p.Kind = wire.KindFlows
		p.Flows = make([]dataset.FlowRecord, flowsPerItem)
		for j := range p.Flows {
			domain := g.named[g.zipf.Sample(s)].Name
			if !s.Bool(namedDomainShare) {
				domain = fmt.Sprintf("anon-%016x", s.Uint64())
			}
			p.Flows[j] = dataset.FlowRecord{RouterID: id,
				Device: mac.FromOUI(0x001CB3, uint32(router*1000+j)),
				Domain: domain, Proto: "tcp",
				First: at, Last: at.Add(time.Duration(1+s.Intn(300)) * time.Second),
				UpBytes: s.Int63() % 1e6, DownBytes: s.Int63() % 1e8,
				UpPkts: int64(s.Intn(1e4)), DownPkts: int64(s.Intn(1e5)),
				Conns: 1 + int64(s.Intn(9))}
		}
	default:
		p.Kind = wire.KindThroughput
		p.Throughput = make([]dataset.ThroughputSample, samplesPerItem)
		for j := range p.Throughput {
			p.Throughput[j] = dataset.ThroughputSample{RouterID: id,
				Minute:  at.Add(time.Duration(j) * time.Minute),
				Dir:     []string{"up", "down"}[j%2],
				PeakBps: s.Range(1e4, 1e8), TotalBytes: s.Int63() % 1e8}
		}
	}
	return p
}

func addCounts(rc *dataset.RowCounts, p *wire.Payload) {
	switch p.Kind {
	case wire.KindUptime:
		rc.Uptime++
	case wire.KindCapacity:
		rc.Capacity++
	case wire.KindDevices:
		rc.Counts++
		rc.Sightings += len(p.Sightings)
	case wire.KindWiFi:
		rc.WiFi += len(p.WiFi)
	case wire.KindFlows:
		rc.Flows += len(p.Flows)
	case wire.KindThroughput:
		rc.Throughput += len(p.Throughput)
	}
}

func sumCounts(a, b dataset.RowCounts) dataset.RowCounts {
	return dataset.RowCounts{
		Routers: a.Routers + b.Routers, Uptime: a.Uptime + b.Uptime, Capacity: a.Capacity + b.Capacity,
		Counts: a.Counts + b.Counts, Sightings: a.Sightings + b.Sightings, WiFi: a.WiFi + b.WiFi,
		Flows: a.Flows + b.Flows, Throughput: a.Throughput + b.Throughput,
	}
}

// storeRows counts the rows of a plain store.
func storeRows(st *dataset.Store) int {
	return len(st.Uptime) + len(st.Capacity) + len(st.Counts) + len(st.Sightings) + len(st.WiFi) + len(st.Flows) + len(st.Throughput)
}

func totalRows(rc dataset.RowCounts) int {
	return rc.Uptime + rc.Capacity + rc.Counts + rc.Sightings + rc.WiFi + rc.Flows + rc.Throughput
}
