// Incremental analysis state. A Partial is a mergeable projection of a
// row stream that is sufficient to regenerate every figure exactly:
// fold sealed segment chunks into it as they arrive and the dashboard
// never has to re-scan history.
//
// The projection keeps low-volume row kinds verbatim (uptime, capacity,
// censuses, sightings, WiFi scans, per-minute throughput — all bounded
// by fleet size × observation minutes) and collapses the one unbounded
// kind, flow records, into per-(router, device, domain, proto) running
// totals. Every figure that reads flows consumes only RouterID, Device,
// Domain, Bytes() and Conns, so the collapse is lossless for analysis;
// and because byte/connection counts are integers whose sums stay far
// below 2^53, the float64 arithmetic downstream is exact regardless of
// how many rows were merged into each total — the rendered figures are
// bit-identical to a batch run over the raw rows.
//
// Ordering: Fold must be called with chunks in stream order (sealed
// segments in sequence order, then the live tail). Kept rows are
// appended, so the projected store's row order equals the raw store's
// and every order-sensitive fold downstream (HourBins sums,
// last-sighting-wins kinds) reproduces the batch result.
package analysis

import (
	"slices"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/heartbeat"
	"natpeek/internal/mac"
)

// FlowKey identifies one flow aggregate.
type FlowKey struct {
	Router string
	Device mac.Addr
	Domain string
	Proto  string
}

type flowTotals struct {
	first, last                          time.Time
	upBytes, downBytes, upPkts, downPkts int64
	conns                                int64
}

// Partial is the mergeable incremental state. The zero value is not
// usable; construct with NewPartial.
type Partial struct {
	roster     map[string]string
	uptime     []dataset.UptimeReport
	capacity   []dataset.CapacityMeasure
	counts     []dataset.DeviceCount
	sightings  []dataset.DeviceSighting
	wifi       []dataset.WiFiScan
	throughput []dataset.ThroughputSample

	flowOrder []FlowKey // first-seen order, for deterministic materialization
	flows     map[FlowKey]*flowTotals
	flowRows  int // raw flow rows folded (pre-collapse)
}

// NewPartial returns an empty accumulator.
func NewPartial() *Partial {
	return &Partial{
		roster: make(map[string]string),
		flows:  make(map[FlowKey]*flowTotals),
	}
}

// Grow reserves room for rc more rows of every kind kept verbatim, so a
// caller that knows what it is about to fold (a segment store knows from
// its footers) pays one allocation per kind rather than a doubling
// series. Flows collapse into aggregates and take no hint.
func (p *Partial) Grow(rc dataset.RowCounts) {
	p.uptime = slices.Grow(p.uptime, rc.Uptime)
	p.capacity = slices.Grow(p.capacity, rc.Capacity)
	p.counts = slices.Grow(p.counts, rc.Counts)
	p.sightings = slices.Grow(p.sightings, rc.Sightings)
	p.wifi = slices.Grow(p.wifi, rc.WiFi)
	p.throughput = slices.Grow(p.throughput, rc.Throughput)
}

// Fold accumulates one chunk of rows. The chunk is not retained and not
// mutated. Chunks must arrive in stream order (see package comment).
func (p *Partial) Fold(chunk *dataset.Store) {
	for id, c := range chunk.RouterCountry {
		p.roster[id] = c
	}
	p.uptime = append(p.uptime, chunk.Uptime...)
	p.capacity = append(p.capacity, chunk.Capacity...)
	p.counts = append(p.counts, chunk.Counts...)
	p.sightings = append(p.sightings, chunk.Sightings...)
	p.wifi = append(p.wifi, chunk.WiFi...)
	p.throughput = append(p.throughput, chunk.Throughput...)
	for _, f := range chunk.Flows {
		p.foldFlow(f)
	}
}

func (p *Partial) foldFlow(f dataset.FlowRecord) {
	p.flowRows++
	k := FlowKey{Router: f.RouterID, Device: f.Device, Domain: f.Domain, Proto: f.Proto}
	t := p.flows[k]
	if t == nil {
		t = &flowTotals{first: f.First, last: f.Last}
		p.flows[k] = t
		p.flowOrder = append(p.flowOrder, k)
	} else {
		if !f.First.IsZero() && (t.first.IsZero() || f.First.Before(t.first)) {
			t.first = f.First
		}
		if f.Last.After(t.last) {
			t.last = f.Last
		}
	}
	t.upBytes += f.UpBytes
	t.downBytes += f.DownBytes
	t.upPkts += f.UpPkts
	t.downPkts += f.DownPkts
	t.conns += f.Conns
}

// Merge folds o into p, as if o's chunks had been folded after p's. o
// is not retained; p and o must not share chunks.
func (p *Partial) Merge(o *Partial) {
	for id, c := range o.roster {
		p.roster[id] = c
	}
	p.uptime = append(p.uptime, o.uptime...)
	p.capacity = append(p.capacity, o.capacity...)
	p.counts = append(p.counts, o.counts...)
	p.sightings = append(p.sightings, o.sightings...)
	p.wifi = append(p.wifi, o.wifi...)
	p.throughput = append(p.throughput, o.throughput...)
	for _, k := range o.flowOrder {
		t := o.flows[k]
		dst := p.flows[k]
		if dst == nil {
			cp := *t
			p.flows[k] = &cp
			p.flowOrder = append(p.flowOrder, k)
			continue
		}
		if !t.first.IsZero() && (dst.first.IsZero() || t.first.Before(dst.first)) {
			dst.first = t.first
		}
		if t.last.After(dst.last) {
			dst.last = t.last
		}
		dst.upBytes += t.upBytes
		dst.downBytes += t.downBytes
		dst.upPkts += t.upPkts
		dst.downPkts += t.downPkts
		dst.conns += t.conns
	}
	p.flowRows += o.flowRows
}

// Clone returns an independent deep copy — a render can fold the live
// tail into the clone without disturbing the accumulating base. Slices
// are copied at exact capacity so the clone's first append reallocates
// rather than sharing backing arrays with the base.
func (p *Partial) Clone() *Partial {
	q := &Partial{
		roster:     make(map[string]string, len(p.roster)),
		uptime:     exactCopy(p.uptime),
		capacity:   exactCopy(p.capacity),
		counts:     exactCopy(p.counts),
		sightings:  exactCopy(p.sightings),
		wifi:       exactCopy(p.wifi),
		throughput: exactCopy(p.throughput),
		flowOrder:  exactCopy(p.flowOrder),
		flows:      make(map[FlowKey]*flowTotals, len(p.flows)),
		flowRows:   p.flowRows,
	}
	for id, c := range p.roster {
		q.roster[id] = c
	}
	for k, t := range p.flows {
		cp := *t
		q.flows[k] = &cp
	}
	return q
}

func exactCopy[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// RawFlowRows reports how many flow rows were folded (before the
// per-key collapse); Len reports the projected flow aggregate count.
// Their ratio is the projection's compression on the dominant kind.
func (p *Partial) RawFlowRows() int { return p.flowRows }

// FlowAggregates reports the projected flow row count.
func (p *Partial) FlowAggregates() int { return len(p.flows) }

// Store materializes the projection as a dataset.Store for the batch
// figure code. Kept kinds alias nothing (fresh slices on every call is
// avoided — the slices are shared read-only with the Partial, so the
// result must not be mutated and the Partial must not fold while the
// store is in use; Clone first for a stable snapshot). hb supplies the
// heartbeat log, which is already an incremental structure of its own
// (run-length encoded) and is shared rather than copied.
func (p *Partial) Store(hb *heartbeat.Log) *dataset.Store {
	st := &dataset.Store{
		Heartbeats:    hb,
		RouterCountry: p.roster,
		Uptime:        p.uptime,
		Capacity:      p.capacity,
		Counts:        p.counts,
		Sightings:     p.sightings,
		WiFi:          p.wifi,
		Throughput:    p.throughput,
	}
	st.Flows = make([]dataset.FlowRecord, 0, len(p.flowOrder))
	for _, k := range p.flowOrder {
		t := p.flows[k]
		st.Flows = append(st.Flows, dataset.FlowRecord{
			RouterID: k.Router, Device: k.Device, Domain: k.Domain, Proto: k.Proto,
			First: t.first, Last: t.last,
			UpBytes: t.upBytes, DownBytes: t.downBytes,
			UpPkts: t.upPkts, DownPkts: t.downPkts,
			Conns: t.conns,
		})
	}
	return st
}

// Rows summarizes the projected state (diagnostics for the dashboard
// header).
func (p *Partial) Rows() dataset.RowCounts {
	return dataset.RowCounts{
		Routers:    len(p.roster),
		Uptime:     len(p.uptime),
		Capacity:   len(p.capacity),
		Counts:     len(p.counts),
		Sightings:  len(p.sightings),
		WiFi:       len(p.wifi),
		Flows:      p.flowRows,
		Throughput: len(p.throughput),
	}
}
