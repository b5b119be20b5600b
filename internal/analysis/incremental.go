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
	"sync"
	"sync/atomic"

	"natpeek/internal/dataset"
	"natpeek/internal/heartbeat"
)

// Partial is the incremental state. The zero value is not usable;
// construct with NewPartial.
type Partial struct {
	roster    map[string]string // router → country
	rosterGen uint64            // changes of roster: a registration, or a router's new country
	roll      *rollup
	flowRows  int // raw flow rows folded
	// last is the home summaries of the latest page summarized over the
	// partial, which the next page takes what still holds of (summary).
	// Pages store and load it outside the lock that serializes folds.
	last atomic.Pointer[Rollup]
}

// NewPartial returns an empty accumulator.
func NewPartial() *Partial {
	return &Partial{roster: make(map[string]string), roll: newRollup(0)}
}

// Fold accumulates one chunk of rows. The chunk is not retained and not
// mutated. Chunks must arrive in stream order (see package comment).
func (p *Partial) Fold(chunk *dataset.Store) {
	for id, code := range chunk.RouterCountry {
		if c, ok := p.roster[id]; !ok || c != code {
			p.roster[id] = code
			p.rosterGen++
		}
	}
	p.roll.addKept(chunk)
	p.flowRows += len(chunk.Flows)
	for i := range chunk.Flows {
		p.roll.add(&chunk.Flows[i])
	}
}

// Clone returns an independent copy: the rollup's home versions are
// shared until either side folds into them (copy on write).
func (p *Partial) Clone() *Partial {
	return &Partial{roster: maps.Clone(p.roster), rosterGen: p.rosterGen, roll: p.roll.clone(), flowRows: p.flowRows}
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
//	st, ro, v := sn.Store(hb), sn.Roster(), sn.Rollup() // what the exhibits read
//
// No row is copied: Capture freezes base's rollup, whose next fold copies
// each home version it touches instead of changing it, and lays the
// tail's rollup over it. The snapshot's store holds the roster and the
// heartbeats only; every row-backed exhibit reads the Rollup. Rollup
// summarizes the homes first (summary), outside the lock.
//
// A live page need not roll its tail up again: the next page's snapshot
// is this one's Extended by the rows that arrived since, work
// proportional to those rows; its Capture looks up only the tail entries
// they added and, while no router has registered or changed country,
// takes this page's roster and its index as they are; and its Rollup
// computes only the summaries of the homes whose versions changed.
type Snapshot struct {
	roll   *rollup           // the tail's rows alone, frozen
	tail   *Rollup           // roll's view, which Capture lays over a base
	roster map[string]string // the tail's routers
	// added names the routers that the rows Extend folded registered in
	// the tail's roster or gave a new country: a page's roster is the one
	// of the page it extends when the base's has not changed since and
	// that one already holds these.
	added   []string
	prev    *Snapshot // the snapshot this one extends, until Capture
	base    *Partial  // what Capture captured
	routers *pageRoster
	view    *Rollup
	summed  bool
}

// pageRoster is a page's roster, the base's with the tail's routers laid
// over it, and its index, made once however many pages share it.
type pageRoster struct {
	countries map[string]string
	base      *Partial
	gen       uint64 // base.rosterGen it was merged at
	index     func() *Roster
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
	var added []string
	for id, code := range rows.RouterCountry {
		if c, ok := sn.roster[id]; !ok || c != code {
			added = append(added, id)
		}
	}
	roster := sn.roster
	if added != nil {
		roster = maps.Clone(sn.roster)
		maps.Copy(roster, rows.RouterCountry)
	}
	return &Snapshot{roll: &r, tail: r.view(), roster: roster, added: added, prev: sn}
}

// addRows folds c's flow rows, then its kept rows.
func (r *rollup) addRows(c *dataset.Store) {
	for i := range c.Flows {
		r.add(&c.Flows[i])
	}
	r.addKept(c)
}

// Capture reads p: the tail's rollup is resolved against p's — one
// lookup per home, domain and device of the tail, and nothing per row or
// entry of p — and p's roster is cloned with the tail's routers laid over
// it. A snapshot Extended from one captured over p as p still is looks
// up only the entries its rows added, and takes that one's roster when
// neither p's nor the tail's has changed since. The first capture after
// a fold also freezes what that fold wrote: it re-ranks the homes the
// fold touched and settles their new kept values into sorted runs,
// O(k log n) amortized for k values (see run). A snapshot is captured
// once, and the captures of one chain of Extends are serialized — as the
// lock that holds off folds does.
func (sn *Snapshot) Capture(p *Partial) {
	var prev *overlay
	if pr := sn.prev; pr != nil && pr.view != nil {
		prev = pr.view.tail
		if ro := pr.routers; ro.base == p && ro.gen == p.rosterGen && ro.holds(sn.added, sn.roster) {
			sn.routers = ro
		}
	}
	sn.prev = nil
	if sn.routers == nil {
		countries := maps.Clone(p.roster)
		maps.Copy(countries, sn.roster)
		sn.routers = &pageRoster{countries: countries, base: p, gen: p.rosterGen,
			index: sync.OnceValue(func() *Roster { return NewRoster(&dataset.Store{RouterCountry: countries}) })}
	}
	sn.base = p
	sn.view = p.roll.overlay(sn.tail, prev)
}

// holds reports whether ro has each of ids with its country in roster.
func (ro *pageRoster) holds(ids []string, roster map[string]string) bool {
	for _, id := range ids {
		if c, ok := ro.countries[id]; !ok || c != roster[id] {
			return false
		}
	}
	return true
}

// Rollup returns the captured rollup with the tail's laid over it. The
// first call summarizes its homes, taking the summaries of the latest
// page over the same partial where they still hold; it must not race
// another call on the same snapshot, and may run beside folds into the
// partial, since the versions it reads are frozen.
func (sn *Snapshot) Rollup() *Rollup {
	if !sn.summed {
		sn.view.summarize(sn.base.last.Load())
		sn.base.last.Store(sn.view)
		sn.summed = true
	}
	return sn.view
}

// Roster returns the captured roster's index; pages that share a roster
// share it.
func (sn *Snapshot) Roster() *Roster { return sn.routers.index() }

// Store finishes the snapshot: the captured roster with the tail's
// routers added, and hb. It holds no rows (see Rollup). The result must
// not be mutated.
func (sn *Snapshot) Store(hb *heartbeat.Log) *dataset.Store {
	return &dataset.Store{Heartbeats: hb, RouterCountry: sn.routers.countries}
}
