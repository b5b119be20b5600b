// Sharded is the concurrent variant of Store: the ingest-side data
// structure a collector serving thousands of routers appends into. The
// plain Store is a single struct of slices that forces every writer
// through one lock; Sharded stripes rows across per-router shards, each
// with its own mutex, over a dedupe index striped the same way (see
// Dedupe), so appends for different routers proceed in parallel and the
// idempotency check and the append stay atomic under one (shard) lock.
//
// The striping is an ingest-time optimization only — analyses and CSV
// persistence still see a plain Store. Merge reassembles one by global
// arrival order: every apply records a segment stamped from one atomic
// sequence counter, and Merge replays the segments in sequence order.
// For a serial sequence of appends the merged store is therefore
// slice-for-slice identical to what the same appends would have built in
// a plain Store, which is what keeps the verify harness's golden
// snapshots byte-identical across the sharding (see
// TestShardedMatchesSeedStoreCSV).
package dataset

import (
	"encoding/csv"
	"sort"
	"sync"
	"sync/atomic"

	"natpeek/internal/heartbeat"
)

// DefaultShards is the shard count NewSharded uses for n <= 0. Striping
// wins as long as the count comfortably exceeds the number of writer
// goroutines; 32 covers every deployment size the collector sees while
// keeping Merge's fan-in small.
const DefaultShards = 32

// rowKind indexes the per-data-set slices a segment can cover.
type rowKind uint8

const (
	kindUptime rowKind = iota
	kindCapacity
	kindCounts
	kindSightings
	kindWiFi
	kindFlows
	kindThroughput
	numKinds
)

// segment records one contiguous append to one shard slice, stamped with
// the global arrival sequence so Merge can restore cross-shard order.
type segment struct {
	kind rowKind
	off  int
	n    int
	seq  uint64
}

// shard is one stripe: a private Store (its Heartbeats field is unused —
// the heartbeat log is shared and internally synchronized) plus its
// arrival-order segment log.
type shard struct {
	mu    sync.Mutex
	store *Store
	segs  []segment
}

// Sharded is a lock-striped store for concurrent ingestion.
type Sharded struct {
	// Heartbeats is the shared heartbeat log. It has its own internal
	// locking (UDP datagrams arrive on a receiver goroutine), so it is
	// not striped.
	Heartbeats *heartbeat.Log

	shards []*shard
	dedupe *Dedupe // one stripe per shard, routed by the same hash
	seq    atomic.Uint64
}

// NewSharded returns an empty sharded store with n stripes (n <= 0 means
// DefaultShards) and a dedupe index of its own.
func NewSharded(n int) *Sharded { return NewShardedOver(NewDedupe(n, 0)) }

// NewShardedOver returns an empty sharded store striped like d that
// dedupes through d. Of the stores built over one index only one may be
// written (the segment store's live memtable); the rest are sealed.
func NewShardedOver(d *Dedupe) *Sharded {
	s := &Sharded{Heartbeats: heartbeat.NewLog(), shards: make([]*shard, len(d.stripes)), dedupe: d}
	for i := range s.shards {
		s.shards[i] = &shard{store: &Store{RouterCountry: make(map[string]string)}}
	}
	return s
}

// NumShards returns the stripe count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Apply runs one upload's store mutation under the router's shard lock,
// honoring the idempotency key: a key already in the dedupe index is
// skipped and Apply reports false. The apply closure must only
// append rows and set roster entries — it sees the shard's private
// Store, and anything else it does is invisible to Merge.
//
// The dedupe index is striped alongside the data: keys are prefixed with
// the router ID by every client, so a key's replays always route to the
// same shard and the mark-then-append pair stays atomic without any
// global lock.
func (s *Sharded) Apply(router, key string, apply func(*Store)) bool {
	i := s.dedupe.stripeOf(router)
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !s.dedupe.mark(i, key) {
		return false
	}
	before := kindLens(sh.store)
	apply(sh.store)
	s.record(sh, before)
	return true
}

// Append is Apply without deduplication, for writers that manage their
// own exactly-once semantics (the simulator's direct sink, benchmarks).
func (s *Sharded) Append(router string, apply func(*Store)) {
	sh := s.shards[s.dedupe.stripeOf(router)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	before := kindLens(sh.store)
	apply(sh.store)
	s.record(sh, before)
}

func kindLens(st *Store) [numKinds]int {
	return [numKinds]int{
		kindUptime:     len(st.Uptime),
		kindCapacity:   len(st.Capacity),
		kindCounts:     len(st.Counts),
		kindSightings:  len(st.Sightings),
		kindWiFi:       len(st.WiFi),
		kindFlows:      len(st.Flows),
		kindThroughput: len(st.Throughput),
	}
}

// record turns the slice growth of one apply into sequence-stamped
// segments. Must be called with the shard lock held; the sequence is
// taken after the apply so segments within a shard are seq-ordered.
//
// Consecutive same-kind growth coalesces: if this shard's last segment
// holds the globally-latest sequence number, no segment anywhere orders
// after it, so extending it in place preserves merge order exactly. (If
// another shard races past the atomic load, its rows and these rows are
// concurrent — either merge order is valid.) Real ingest is bursty —
// spool batches deliver one router's backlog back-to-back — so this
// keeps the segment log near-empty in both the serial verify runs and
// steady-state collection.
func (s *Sharded) record(sh *shard, before [numKinds]int) {
	after := kindLens(sh.store)
	for k := rowKind(0); k < numKinds; k++ {
		grown := after[k] - before[k]
		if grown <= 0 {
			continue
		}
		if n := len(sh.segs); n > 0 {
			last := &sh.segs[n-1]
			if last.kind == k && last.off+last.n == before[k] && s.seq.Load() == last.seq {
				last.n += grown
				continue
			}
		}
		sh.segs = append(sh.segs, segment{kind: k, off: before[k], n: grown, seq: s.seq.Add(1)})
	}
}

// DedupeLen returns the number of idempotency keys remembered across all
// stripes.
func (s *Sharded) DedupeLen() int { return s.dedupe.Len() }

// RowCounts summarizes the store without merging it — one lock
// acquisition per stripe, no copying. Fleet-size progress logs poll
// this.
type RowCounts struct {
	Routers    int
	Uptime     int
	Capacity   int
	Counts     int
	Sightings  int
	WiFi       int
	Flows      int
	Throughput int
}

// RowCounts sums the per-stripe slice lengths.
func (s *Sharded) RowCounts() RowCounts {
	var rc RowCounts
	for _, sh := range s.shards {
		sh.mu.Lock()
		rc.Routers += len(sh.store.RouterCountry)
		rc.Uptime += len(sh.store.Uptime)
		rc.Capacity += len(sh.store.Capacity)
		rc.Counts += len(sh.store.Counts)
		rc.Sightings += len(sh.store.Sightings)
		rc.WiFi += len(sh.store.WiFi)
		rc.Flows += len(sh.store.Flows)
		rc.Throughput += len(sh.store.Throughput)
		sh.mu.Unlock()
	}
	return rc
}

// Roster returns a merged copy of the router→country metadata across
// all stripes (one lock acquisition per stripe, no row copying).
func (s *Sharded) Roster() map[string]string {
	out := make(map[string]string)
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, cc := range sh.store.RouterCountry {
			out[id] = cc
		}
		sh.mu.Unlock()
	}
	return out
}

// Merge reassembles a plain Store snapshot in global arrival order. The
// snapshot shares the (internally synchronized) heartbeat log and copies
// every row; its dedupe index is empty — dedupe state stays with the
// sharded store. All stripes are locked for the duration, so the
// snapshot is consistent.
func (s *Sharded) Merge() *Store {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()

	out := &Store{
		Heartbeats:    s.Heartbeats,
		RouterCountry: make(map[string]string),
	}
	var total [numKinds]int
	nsegs := 0
	for _, sh := range s.shards {
		for id, cc := range sh.store.RouterCountry {
			out.RouterCountry[id] = cc
		}
		lens := kindLens(sh.store)
		for k := rowKind(0); k < numKinds; k++ {
			total[k] += lens[k]
		}
		nsegs += len(sh.segs)
	}
	out.Uptime = make([]UptimeReport, 0, total[kindUptime])
	out.Capacity = make([]CapacityMeasure, 0, total[kindCapacity])
	out.Counts = make([]DeviceCount, 0, total[kindCounts])
	out.Sightings = make([]DeviceSighting, 0, total[kindSightings])
	out.WiFi = make([]WiFiScan, 0, total[kindWiFi])
	out.Flows = make([]FlowRecord, 0, total[kindFlows])
	out.Throughput = make([]ThroughputSample, 0, total[kindThroughput])

	all := s.orderedRefs(nsegs)
	for _, r := range all {
		st, seg := r.st, r.seg
		switch seg.kind {
		case kindUptime:
			out.Uptime = append(out.Uptime, st.Uptime[seg.off:seg.off+seg.n]...)
		case kindCapacity:
			out.Capacity = append(out.Capacity, st.Capacity[seg.off:seg.off+seg.n]...)
		case kindCounts:
			out.Counts = append(out.Counts, st.Counts[seg.off:seg.off+seg.n]...)
		case kindSightings:
			out.Sightings = append(out.Sightings, st.Sightings[seg.off:seg.off+seg.n]...)
		case kindWiFi:
			out.WiFi = append(out.WiFi, st.WiFi[seg.off:seg.off+seg.n]...)
		case kindFlows:
			out.Flows = append(out.Flows, st.Flows[seg.off:seg.off+seg.n]...)
		case kindThroughput:
			out.Throughput = append(out.Throughput, st.Throughput[seg.off:seg.off+seg.n]...)
		}
	}
	return out
}

// ref pairs one shard-local segment with the store that holds its rows.
type ref struct {
	st  *Store
	seg segment
}

// orderedRefs collects every shard's segments sorted by global arrival
// sequence. Callers must hold all stripe locks. Per-shard segment lists
// are already seq-sorted (seqs are taken under the shard lock), so a
// k-way merge would do; a plain sort is simpler and both callers (Merge,
// Save) are far off the hot path.
func (s *Sharded) orderedRefs(nsegs int) []ref {
	all := make([]ref, 0, nsegs)
	for _, sh := range s.shards {
		for _, seg := range sh.segs {
			all = append(all, ref{st: sh.store, seg: seg})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seg.seq < all[j].seg.seq })
	return all
}

// Save persists a consistent snapshot of the store as the standard CSV
// layout (one file per data set, written concurrently, byte-identical to
// Merge().Save). Rows stream straight from the shard slices in global
// arrival order — the previous implementation materialized a full merged
// copy of every slice just to write CSV, doubling peak memory at exactly
// the fleet sizes where Save matters. The price is that all stripe locks
// are held for the duration of the write; Save runs at shutdown or
// checkpoint time, never on the ingest path.
func (s *Sharded) Save(dir string) error {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()

	nsegs := 0
	roster := make(map[string]string)
	for _, sh := range s.shards {
		nsegs += len(sh.segs)
		for id, cc := range sh.store.RouterCountry {
			roster[id] = cc
		}
	}
	all := s.orderedRefs(nsegs)
	kindRefs := func(k rowKind) []ref {
		out := make([]ref, 0, 8)
		for _, r := range all {
			if r.seg.kind == k {
				out = append(out, r)
			}
		}
		return out
	}
	return saveCSVFiles(dir, []csvFile{
		{FileRoster, func(w *csv.Writer) error { return writeRosterCSV(w, roster) }},
		{FileHeartbeats, func(w *csv.Writer) error { return writeHeartbeatsCSV(w, s.Heartbeats) }},
		{FileUptime, func(w *csv.Writer) error {
			if err := w.Write(uptimeHeader); err != nil {
				return err
			}
			for _, r := range kindRefs(kindUptime) {
				if err := writeUptimeRows(w, r.st.Uptime[r.seg.off:r.seg.off+r.seg.n]); err != nil {
					return err
				}
			}
			return nil
		}},
		{FileCapacity, func(w *csv.Writer) error {
			if err := w.Write(capacityHeader); err != nil {
				return err
			}
			for _, r := range kindRefs(kindCapacity) {
				if err := writeCapacityRows(w, r.st.Capacity[r.seg.off:r.seg.off+r.seg.n]); err != nil {
					return err
				}
			}
			return nil
		}},
		{FileCounts, func(w *csv.Writer) error {
			if err := w.Write(countsHeader); err != nil {
				return err
			}
			for _, r := range kindRefs(kindCounts) {
				if err := writeCountRows(w, r.st.Counts[r.seg.off:r.seg.off+r.seg.n]); err != nil {
					return err
				}
			}
			return nil
		}},
		{FileSightings, func(w *csv.Writer) error {
			if err := w.Write(sightingsHeader); err != nil {
				return err
			}
			for _, r := range kindRefs(kindSightings) {
				if err := writeSightingRows(w, r.st.Sightings[r.seg.off:r.seg.off+r.seg.n]); err != nil {
					return err
				}
			}
			return nil
		}},
		{FileWiFi, func(w *csv.Writer) error {
			if err := w.Write(wifiHeader); err != nil {
				return err
			}
			for _, r := range kindRefs(kindWiFi) {
				if err := writeWiFiRows(w, r.st.WiFi[r.seg.off:r.seg.off+r.seg.n]); err != nil {
					return err
				}
			}
			return nil
		}},
		{FileFlows, func(w *csv.Writer) error {
			if err := w.Write(flowsHeader); err != nil {
				return err
			}
			for _, r := range kindRefs(kindFlows) {
				if err := writeFlowRows(w, r.st.Flows[r.seg.off:r.seg.off+r.seg.n]); err != nil {
					return err
				}
			}
			return nil
		}},
		{FileThroughput, func(w *csv.Writer) error {
			if err := w.Write(throughputHeader); err != nil {
				return err
			}
			for _, r := range kindRefs(kindThroughput) {
				if err := writeThroughputRows(w, r.st.Throughput[r.seg.off:r.seg.off+r.seg.n]); err != nil {
					return err
				}
			}
			return nil
		}},
	})
}
