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
// The aggregates live in one dense []dataset.FlowRecord — already the
// form the figure code reads — in first-seen order, beside a key → position
// index. Materializing the projection is therefore free (Store hands the
// slice out), and a point-in-time copy is a memcpy (Snapshot).
//
// Ordering: Fold must be called with chunks in stream order (sealed
// segments in sequence order, then the live tail). Kept rows are
// appended, so the projected store's row order equals the raw store's
// and every order-sensitive fold downstream (HourBins sums,
// last-sighting-wins kinds) reproduces the batch result.
package analysis

import (
	"maps"
	"slices"

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

func keyOf(f *dataset.FlowRecord) FlowKey {
	return FlowKey{Router: f.RouterID, Device: f.Device, Domain: f.Domain, Proto: f.Proto}
}

// keptKinds are the row kinds a Partial keeps verbatim: all but flows.
var keptKinds = func() []dataset.Kind {
	var out []dataset.Kind
	for _, k := range dataset.Kinds {
		if k.File != dataset.FileFlows {
			out = append(out, k)
		}
	}
	return out
}()

// Partial is the mergeable incremental state. The zero value is not
// usable; construct with NewPartial.
type Partial struct {
	// st holds the projection in the shape the figure code reads: the
	// roster, the kept kinds verbatim, and in Flows one aggregate per
	// FlowKey in first-seen order. Kept rows are only ever appended;
	// aggregates are also updated in place.
	st       dataset.Store
	flowIdx  map[FlowKey]int32 // position of each key's aggregate in st.Flows
	flowRows int               // raw flow rows folded (pre-collapse)
}

// NewPartial returns an empty accumulator.
func NewPartial() *Partial {
	return &Partial{
		st:      dataset.Store{RouterCountry: make(map[string]string)},
		flowIdx: make(map[FlowKey]int32),
	}
}

// Grow reserves room for rc more rows of every kind kept verbatim, so a
// caller that knows what it is about to fold (a segment store knows from
// its footers) pays one allocation per kind rather than a doubling
// series. Flows collapse into aggregates and take no hint.
func (p *Partial) Grow(rc dataset.RowCounts) {
	p.st.Uptime = slices.Grow(p.st.Uptime, rc.Uptime)
	p.st.Capacity = slices.Grow(p.st.Capacity, rc.Capacity)
	p.st.Counts = slices.Grow(p.st.Counts, rc.Counts)
	p.st.Sightings = slices.Grow(p.st.Sightings, rc.Sightings)
	p.st.WiFi = slices.Grow(p.st.WiFi, rc.WiFi)
	p.st.Throughput = slices.Grow(p.st.Throughput, rc.Throughput)
}

// Fold accumulates one chunk of rows. The chunk is not retained and not
// mutated. Chunks must arrive in stream order (see package comment).
func (p *Partial) Fold(chunk *dataset.Store) {
	p.foldKept(chunk)
	p.flowRows += len(chunk.Flows)
	p.st.Flows = slices.Grow(p.st.Flows, len(chunk.Flows))
	for i := range chunk.Flows {
		p.foldFlow(&chunk.Flows[i])
	}
}

func (p *Partial) foldKept(chunk *dataset.Store) {
	maps.Copy(p.st.RouterCountry, chunk.RouterCountry)
	for _, k := range keptKinds {
		k.Append(&p.st, chunk, 0, k.Len(chunk))
	}
}

// foldFlow adds f — a raw row or another Partial's aggregate — to its
// key's aggregate, appending a new one on first sight.
func (p *Partial) foldFlow(f *dataset.FlowRecord) {
	k := keyOf(f)
	if i, ok := p.flowIdx[k]; ok {
		addFlow(&p.st.Flows[i], f)
		return
	}
	p.flowIdx[k] = int32(len(p.st.Flows))
	p.st.Flows = append(p.st.Flows, *f)
}

// addFlow merges f into the aggregate t of the same key.
func addFlow(t, f *dataset.FlowRecord) {
	if !f.First.IsZero() && (t.First.IsZero() || f.First.Before(t.First)) {
		t.First = f.First
	}
	if f.Last.After(t.Last) {
		t.Last = f.Last
	}
	t.UpBytes += f.UpBytes
	t.DownBytes += f.DownBytes
	t.UpPkts += f.UpPkts
	t.DownPkts += f.DownPkts
	t.Conns += f.Conns
}

// Merge folds o into p, as if o's chunks had been folded after p's. o
// is not retained; p and o must not share chunks.
func (p *Partial) Merge(o *Partial) {
	p.foldKept(&o.st)
	p.flowRows += o.flowRows
	for i := range o.st.Flows {
		p.foldFlow(&o.st.Flows[i])
	}
}

// Clone returns an independent deep copy. Slices are copied at exact
// capacity so the clone's first append reallocates rather than sharing
// backing arrays with the original.
func (p *Partial) Clone() *Partial {
	q := &Partial{
		st:       dataset.Store{RouterCountry: maps.Clone(p.st.RouterCountry)},
		flowIdx:  maps.Clone(p.flowIdx),
		flowRows: p.flowRows,
	}
	for _, k := range dataset.Kinds {
		n := k.Len(&p.st)
		k.Alloc(&q.st, 0, n)
		k.Append(&q.st, &p.st, 0, n)
	}
	return q
}

// RawFlowRows reports how many flow rows were folded (before the
// per-key collapse); FlowAggregates reports the projected flow row
// count. Their ratio is the projection's compression on the dominant
// kind.
func (p *Partial) RawFlowRows() int { return p.flowRows }

// FlowAggregates reports the projected flow row count.
func (p *Partial) FlowAggregates() int { return len(p.st.Flows) }

// Store materializes the projection as a dataset.Store for the batch
// figure code, at no per-row cost: every slice and the roster are shared
// read-only with the Partial (capacity clipped, so an append on either
// side cannot reach the other). The result must not be mutated, and the
// Partial must not fold while the store is in use — a fold updates
// aggregates in place; take a Snapshot for a view that survives folds.
// hb supplies the heartbeat log, which is already an incremental
// structure of its own (run-length encoded) and is shared rather than
// copied.
func (p *Partial) Store(hb *heartbeat.Log) *dataset.Store {
	st := &dataset.Store{Heartbeats: hb, RouterCountry: p.st.RouterCountry}
	for _, k := range dataset.Kinds {
		k.Window(st, &p.st, 0, k.Len(&p.st))
	}
	return st
}

// Rows summarizes the projected state (diagnostics for the dashboard
// header).
func (p *Partial) Rows() dataset.RowCounts {
	rc := dataset.CountRows(&p.st)
	rc.Flows = p.flowRows
	return rc
}

// Snapshot is a Partial frozen at an instant with a live tail on top: the
// store Clone() → Fold(tail) → Store(hb) would yield, for the cost of one
// flat copy of the aggregates plus work proportional to the tail. It is
// built in three steps so that a caller serializing folds behind a lock
// holds it for the middle one only:
//
//	sn := analysis.NewSnapshot(tail) // collapses the tail's flows
//	mu.Lock()
//	sn.Capture(base, nil) // the flat copy; nothing may fold into base meanwhile
//	mu.Unlock()
//	st := sn.Store(hb) // appends the tail's kept rows
//
// Kept rows are append-only, so the slice headers Capture takes stay a
// stable view of base after the lock is gone; aggregates are updated in
// place, so Capture copies them.
type Snapshot struct {
	tail  *dataset.Store
	flows *Partial // the tail's flows alone, collapsed
	st    dataset.Store
}

// NewSnapshot prepares a snapshot over tail, which must not change until
// Store returns.
func NewSnapshot(tail *dataset.Store) *Snapshot {
	sn := &Snapshot{tail: tail, flows: NewPartial()}
	for i := range tail.Flows {
		sn.flows.foldFlow(&tail.Flows[i])
	}
	return sn
}

// Capture reads p: the roster is cloned, the kept kinds are taken by
// slice header, and the aggregates are copied once, with the tail's
// aggregates merged through p's index. Nothing is allocated, hashed or
// looked up per aggregate of p. The copy lands in buf's array when that
// has room for p's aggregates and the tail's — the Flows of an earlier
// snapshot's store that is no longer in use, say — and otherwise in a new
// one with room to grow into, so that a caller handing buffers back
// allocates only now and then.
func (sn *Snapshot) Capture(p *Partial, buf []dataset.FlowRecord) {
	sn.st.RouterCountry = maps.Clone(p.st.RouterCountry)
	for _, k := range keptKinds {
		k.Window(&sn.st, &p.st, 0, k.Len(&p.st))
	}
	tail := sn.flows.st.Flows
	flows := buf[:0]
	if need := len(p.st.Flows) + len(tail); cap(flows) < need {
		flows = make([]dataset.FlowRecord, 0, need+need/4)
	}
	flows = append(flows, p.st.Flows...)
	for i := range tail {
		if j, ok := p.flowIdx[keyOf(&tail[i])]; ok {
			addFlow(&flows[j], &tail[i])
		} else {
			flows = append(flows, tail[i])
		}
	}
	sn.st.Flows = flows
}

// Store finishes the snapshot: each kept kind the tail has rows of gets
// one exact-size slice holding p's rows then the tail's; the others stay
// shared with p. The result must not be mutated.
func (sn *Snapshot) Store(hb *heartbeat.Log) *dataset.Store {
	st := sn.st
	st.Heartbeats = hb
	maps.Copy(st.RouterCountry, sn.tail.RouterCountry)
	for _, k := range keptKinds {
		base, n := k.Len(&sn.st), k.Len(sn.tail)
		if n == 0 {
			continue
		}
		k.Alloc(&st, 0, base+n)
		k.Append(&st, &sn.st, 0, base)
		k.Append(&st, sn.tail, 0, n)
	}
	return &st
}
