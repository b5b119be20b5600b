// Incremental analysis state. A Partial is a mergeable projection of a
// row stream that is sufficient to regenerate every figure exactly:
// fold sealed segment chunks into it as they arrive and the dashboard
// never has to re-scan history.
//
// The projection keeps no row verbatim. Each router is one version of
// state in the Partial's rollup (rollup.go): its flow totals, and its six
// kept kinds (uptime, capacity, censuses, sightings, WiFi scans,
// per-minute throughput) folded exactly (kept.go). The one unbounded
// kind, flow records, also collapses into per-(router, device, domain,
// proto) running totals. Every figure that reads flows consumes only RouterID, Device,
// Domain, Bytes() and Conns, so the collapse is lossless for analysis;
// and because byte/connection counts are integers whose sums stay far
// below 2^53, the float64 arithmetic downstream is exact regardless of
// how many rows were merged into each total — the rendered figures are
// bit-identical to a batch run over the raw rows.
//
// The aggregates live in one dense []dataset.FlowRecord in first-seen
// order, beside a key → position index. Each aggregate remembers the
// rollup entries its rows add to, so a row costs one index lookup either
// way. A dashboard page reads that rollup frozen, with the
// live tail's laid over it (Snapshot), and never reads the history's
// rows or sums them again.
//
// Ordering: Fold must be called with chunks in stream order (sealed
// segments in sequence order, then the live tail). What is order-
// sensitive downstream — a device's last sighting, Fig. 14's series —
// is kept in that order.
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

// Partial is the mergeable incremental state. The zero value is not
// usable; construct with NewPartial.
type Partial struct {
	// st holds the roster and, in Flows, one aggregate per FlowKey in
	// first-seen order, updated in place. It holds no other rows: the
	// kept kinds live in roll alone.
	st       dataset.Store
	flowIdx  map[FlowKey]int32 // position of each key's aggregate in st.Flows
	refs     []flowRef         // per aggregate: the rollup entries its rows add to
	roll     *rollup
	flowRows int // raw flow rows folded (pre-collapse)
}

// NewPartial returns an empty accumulator.
func NewPartial() *Partial {
	return &Partial{
		st:      dataset.Store{RouterCountry: make(map[string]string)},
		flowIdx: make(map[FlowKey]int32),
		roll:    newRollup(0),
	}
}

// Grow reserves room for rc more rows, so a caller that knows what it
// is about to fold (a segment store knows from its footers) pays one
// allocation for each structure the rows grow rather than a growth
// series: the flow aggregates and their refs (at most one per row).
func (p *Partial) Grow(rc dataset.RowCounts) {
	p.st.Flows = slices.Grow(p.st.Flows, rc.Flows)
	p.refs = slices.Grow(p.refs, rc.Flows)
}

// Fold accumulates one chunk of rows. The chunk is not retained and not
// mutated. Chunks must arrive in stream order (see package comment).
func (p *Partial) Fold(chunk *dataset.Store) {
	p.foldKept(chunk)
	p.flowRows += len(chunk.Flows)
	p.st.Flows = slices.Grow(p.st.Flows, len(chunk.Flows))
	p.refs = slices.Grow(p.refs, len(chunk.Flows))
	for i := range chunk.Flows {
		p.foldFlow(&chunk.Flows[i])
	}
}

func (p *Partial) foldKept(chunk *dataset.Store) {
	maps.Copy(p.st.RouterCountry, chunk.RouterCountry)
	p.roll.addKept(chunk)
}

// foldFlow adds f — a raw row or another Partial's aggregate — to its
// key's aggregate, appending a new one on first sight, and to the rollup.
func (p *Partial) foldFlow(f *dataset.FlowRecord) {
	k := keyOf(f)
	i, ok := p.flowIdx[k]
	if ok {
		addFlow(&p.st.Flows[i], f)
	} else {
		i = int32(len(p.st.Flows))
		p.flowIdx[k] = i
		p.st.Flows = append(p.st.Flows, *f)
		p.refs = append(p.refs, unresolved)
	}
	p.roll.add(f, &p.refs[i])
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
	maps.Copy(p.st.RouterCountry, o.st.RouterCountry)
	p.roll.mergeKept(o.roll)
	p.flowRows += o.flowRows
	for i := range o.st.Flows {
		p.foldFlow(&o.st.Flows[i])
	}
}

// Clone returns an independent copy. The aggregates are copied at exact
// capacity so the clone's first append reallocates rather than sharing a
// backing array with the original; the rollup's home versions are shared
// until either side folds into them (copy on write).
func (p *Partial) Clone() *Partial {
	return &Partial{
		st: dataset.Store{
			RouterCountry: maps.Clone(p.st.RouterCountry),
			Flows:         slices.Clone(p.st.Flows),
		},
		flowIdx:  maps.Clone(p.flowIdx),
		refs:     slices.Clone(p.refs),
		roll:     p.roll.clone(),
		flowRows: p.flowRows,
	}
}

// RawFlowRows reports how many flow rows were folded (before the
// per-key collapse); FlowAggregates reports the projected flow row
// count. Their ratio is the projection's compression on the dominant
// kind.
func (p *Partial) RawFlowRows() int { return p.flowRows }

// FlowAggregates reports the projected flow row count.
func (p *Partial) FlowAggregates() int { return len(p.st.Flows) }

// Store returns the roster, hb and the flow aggregates as a
// dataset.Store, at no per-row cost: the aggregates and the roster are
// shared read-only with the Partial (capacity clipped, so an append on
// either side cannot reach the other). It holds no kept rows — those are
// folded into the rollup (Rollup) — so it is what the heartbeat exhibits
// read, not a store to run the batch figures over: the exhibits read the
// rollup, through a Snapshot.
// The result must not be mutated, and the Partial must not fold while
// the store is in use — a fold updates aggregates in place. hb supplies
// the heartbeat log, which is already an incremental structure of its
// own (run-length encoded) and is shared rather than copied.
func (p *Partial) Store(hb *heartbeat.Log) *dataset.Store {
	return &dataset.Store{Heartbeats: hb, RouterCountry: p.st.RouterCountry, Flows: slices.Clip(p.st.Flows)}
}

// Rows summarizes the projected state (diagnostics for the dashboard
// header).
func (p *Partial) Rows() dataset.RowCounts {
	rc := p.roll.keptRows
	rc.Routers = len(p.st.RouterCountry)
	rc.Flows = p.flowRows
	return rc
}

// Snapshot is a Partial frozen at an instant with a live tail on top:
// the roster and the Rollup that Clone() → Fold(tail) would yield, for
// work proportional to the tail and the number of homes. It is built in
// three steps so that a caller serializing folds behind a lock holds it
// for the middle one only:
//
//	sn := analysis.NewSnapshot(tail) // rolls up the tail's rows
//	mu.Lock()
//	sn.Capture(base) // nothing may fold into base meanwhile
//	mu.Unlock()
//	st, v := sn.Store(hb), sn.Rollup() // the roster, and what the exhibits read
//
// No row is copied: Capture freezes base's rollup, whose next fold copies
// each home version it touches instead of changing it, and lays the
// tail's rollup over it. The snapshot's store holds the roster and the
// heartbeats only; every row-backed exhibit reads the Rollup.
type Snapshot struct {
	tail *dataset.Store
	roll *rollup // the tail's rows alone
	st   dataset.Store
	view *Rollup
}

// NewSnapshot prepares a snapshot over tail, which must not change until
// Store returns.
func NewSnapshot(tail *dataset.Store) *Snapshot {
	// A tail is short, and a third of a live fleet's flows go to a
	// domain of their own: room for one domain per row saves the index
	// its growth.
	sn := &Snapshot{tail: tail, roll: newRollup(len(tail.Flows))}
	sn.roll.addRows(tail.Flows)
	sn.roll.addKept(tail)
	sn.roll.settle(false)
	return sn
}

// Capture reads p: the roster is cloned, and the tail's rollup is
// resolved against p's — one lookup per home, domain and device of the
// tail, and nothing per row or aggregate of p. The first capture after a
// fold also freezes what that fold wrote: it re-ranks the homes the fold
// touched and settles their new kept values into sorted runs, O(k log n)
// amortized for k values (see run).
func (sn *Snapshot) Capture(p *Partial) {
	sn.st.RouterCountry = maps.Clone(p.st.RouterCountry)
	sn.view = p.roll.overlay(sn.roll)
}

// Rollup returns the captured rollup with the tail's laid over it.
func (sn *Snapshot) Rollup() *Rollup { return sn.view }

// Store finishes the snapshot: the captured roster with the tail's
// routers added, and hb. It holds no rows (see Rollup). The result must
// not be mutated.
func (sn *Snapshot) Store(hb *heartbeat.Log) *dataset.Store {
	st := sn.st
	st.Heartbeats = hb
	maps.Copy(st.RouterCountry, sn.tail.RouterCountry)
	return &st
}
