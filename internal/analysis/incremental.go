// Incremental analysis state. A Partial is a projection of a row stream
// that is sufficient to regenerate every figure exactly: fold sealed
// segment chunks into it as they arrive and the dashboard never has to
// re-scan history.
//
// The projection keeps no row verbatim. Its one state is a rollup
// (rollup.go) that holds each router as one version: its flow totals, and
// its six kept kinds (uptime, capacity, censuses, sightings, WiFi scans,
// per-minute throughput) folded exactly (kept.go). A flow row, the one
// unbounded kind, adds to its home's totals and to one entry per domain,
// device and (device, domain) pair. Every figure that reads flows
// consumes only RouterID, Device, Domain, Bytes() and Conns, so the sums
// are lossless for analysis; and because byte/connection counts are
// integers whose sums stay far below 2^53, the float64 arithmetic
// downstream is exact regardless of how many rows were added into each
// entry — the rendered figures are bit-identical to a batch run over the
// raw rows. A dashboard page reads that rollup frozen, with the live
// tail's laid over it (Snapshot), and never reads the history's rows or
// sums them again.
//
// Ordering: Fold must be called with chunks in stream order (sealed
// segments in sequence order, then the live tail). What is order-
// sensitive downstream — a device's last sighting, Fig. 14's series —
// is kept in that order.
package analysis

import (
	"maps"

	"natpeek/internal/dataset"
	"natpeek/internal/heartbeat"
)

// Partial is the incremental state. The zero value is not usable;
// construct with NewPartial.
type Partial struct {
	roster   map[string]string // router → country
	roll     *rollup
	flowRows int // raw flow rows folded
}

// NewPartial returns an empty accumulator.
func NewPartial() *Partial {
	return &Partial{roster: make(map[string]string), roll: newRollup(0)}
}

// Fold accumulates one chunk of rows. The chunk is not retained and not
// mutated. Chunks must arrive in stream order (see package comment).
func (p *Partial) Fold(chunk *dataset.Store) {
	maps.Copy(p.roster, chunk.RouterCountry)
	p.roll.addKept(chunk)
	p.flowRows += len(chunk.Flows)
	for i := range chunk.Flows {
		p.roll.add(&chunk.Flows[i])
	}
}

// Clone returns an independent copy: the rollup's home versions are
// shared until either side folds into them (copy on write).
func (p *Partial) Clone() *Partial {
	return &Partial{roster: maps.Clone(p.roster), roll: p.roll.clone(), flowRows: p.flowRows}
}

// RawFlowRows reports how many flow rows were folded; FlowAggregates
// reports the (home, device, domain) entries they were added into. Their
// ratio is the projection's compression on the dominant kind.
func (p *Partial) RawFlowRows() int { return p.flowRows }

// FlowAggregates reports the rollup's (home, device, domain) entries.
func (p *Partial) FlowAggregates() int { return p.roll.pairs }

// Store returns the roster and hb as a dataset.Store, at no per-row
// cost: the roster is shared read-only with the Partial. It holds no
// rows — those are folded into the rollup — so it is what the heartbeat
// exhibits read, not a store to run the batch figures over: the exhibits
// read the rollup, through a Snapshot. The result must not be mutated,
// and the Partial must not fold while the store is in use. hb supplies
// the heartbeat log, which is already an incremental structure of its
// own (run-length encoded) and is shared rather than copied.
func (p *Partial) Store(hb *heartbeat.Log) *dataset.Store {
	return &dataset.Store{Heartbeats: hb, RouterCountry: p.roster}
}

// Rows summarizes the projected state (diagnostics for the dashboard
// header).
func (p *Partial) Rows() dataset.RowCounts {
	rc := p.roll.keptRows
	rc.Routers = len(p.roster)
	rc.Flows = p.flowRows
	return rc
}

// Snapshot is a Partial frozen at an instant with a live tail on top:
// the roster and the Rollup that Clone() → Fold(tail) would yield, for
// work proportional to the tail's entries and nothing per entry of the
// Partial. It is built in three steps so that a caller serializing folds
// behind a lock holds it for the middle one only:
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
//
// A live page need not roll its tail up again: the next page's snapshot
// is this one's Extended by the rows that arrived since, work
// proportional to those rows, and its Capture looks up only the tail
// entries they added.
type Snapshot struct {
	roll   *rollup           // the tail's rows alone, frozen
	tail   *Rollup           // roll's view, which Capture lays over a base
	roster map[string]string // the tail's routers
	prev   *Snapshot         // the snapshot this one extends, until Capture
	st     dataset.Store
	view   *Rollup
}

// NewSnapshot prepares a snapshot over tail, which it does not keep.
func NewSnapshot(tail *dataset.Store) *Snapshot {
	// A tail is short, and a third of a live fleet's flows go to a
	// domain of their own: room for one domain per row saves the index
	// its growth.
	r := newRollup(len(tail.Flows))
	r.unranked = true
	r.addRows(tail)
	return &Snapshot{roll: r, tail: r.view(), roster: maps.Clone(tail.RouterCountry)}
}

// Extend returns a snapshot of sn's tail followed by rows, uncaptured:
// what NewSnapshot would make of the two concatenated, for work
// proportional to rows. sn's rollup is frozen, so the rows fold into a
// copy of the rollup struct whose first writes copy what they touch of
// what it shares with sn (thaw, own): sn, and a page still reading it,
// see no change. Successors share sn's indexes, so a snapshot is
// extended at most once.
func (sn *Snapshot) Extend(rows *dataset.Store) *Snapshot {
	r := *sn.roll
	r.addRows(rows)
	roster := maps.Clone(sn.roster)
	maps.Copy(roster, rows.RouterCountry)
	return &Snapshot{roll: &r, tail: r.view(), roster: roster, prev: sn}
}

// addRows folds c's flow rows, then its kept rows.
func (r *rollup) addRows(c *dataset.Store) {
	for i := range c.Flows {
		r.add(&c.Flows[i])
	}
	r.addKept(c)
}

// Capture reads p: the roster is cloned, and the tail's rollup is
// resolved against p's — one lookup per home, domain and device of the
// tail, and nothing per row or entry of p. A snapshot Extended from one
// captured over p as p still is looks up only the entries its rows
// added. The first capture after a fold also freezes what that fold
// wrote: it re-ranks the homes the fold touched and settles their new
// kept values into sorted runs, O(k log n) amortized for k values (see
// run). A snapshot is captured once, and the captures of one chain of
// Extends are serialized — as the lock that holds off folds does.
func (sn *Snapshot) Capture(p *Partial) {
	var prev *overlay
	if sn.prev != nil && sn.prev.view != nil {
		prev = sn.prev.view.tail
	}
	sn.prev = nil
	sn.st.RouterCountry = maps.Clone(p.roster)
	sn.view = p.roll.overlay(sn.tail, prev)
}

// Rollup returns the captured rollup with the tail's laid over it.
func (sn *Snapshot) Rollup() *Rollup { return sn.view }

// Store finishes the snapshot: the captured roster with the tail's
// routers added, and hb. It holds no rows (see Rollup). The result must
// not be mutated.
func (sn *Snapshot) Store(hb *heartbeat.Log) *dataset.Store {
	st := sn.st
	st.Heartbeats = hb
	maps.Copy(st.RouterCountry, sn.roster)
	return &st
}
