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

// segment records one contiguous append to one shard slice, stamped with
// the global arrival sequence so Merge can restore cross-shard order.
type segment struct {
	kind uint8 // index into Kinds
	off  int
	n    int
	seq  uint64
}

// shard is one stripe: a private Store (its Heartbeats field is unused —
// the heartbeat log is shared and internally synchronized), its
// arrival-order segment log, and the store's per-kind lengths as of the
// last recorded apply — what the next apply's growth is measured from.
type shard struct {
	mu    sync.Mutex
	store *Store
	segs  []segment
	lens  [NumKinds]int
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
	rows   atomic.Int64 // rows held across all stripes and kinds
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
		s.shards[i] = &shard{store: newRows()}
	}
	return s
}

// NumShards returns the stripe count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// lockAll takes every stripe lock, for a consistent view of the whole
// store; the returned function releases them.
func (s *Sharded) lockAll() (unlock func()) {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	return func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}
}

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
	apply(sh.store)
	s.record(sh)
	return true
}

// Append is Apply without deduplication, for writers that manage their
// own exactly-once semantics (the simulator's direct sink, benchmarks).
func (s *Sharded) Append(router string, apply func(*Store)) {
	sh := s.shards[s.dedupe.stripeOf(router)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	apply(sh.store)
	s.record(sh)
}

// record turns the slice growth of one apply into sequence-stamped
// segments and adds it to the row tally. Must be called with the shard
// lock held; the sequence is taken after the apply so segments within a
// shard are seq-ordered.
//
// Consecutive same-kind growth coalesces: if this shard's last segment
// holds the globally-latest sequence number, no segment anywhere orders
// after it, so extending it in place preserves merge order exactly. (If
// another shard races past the atomic load, its rows and these rows are
// concurrent — either merge order is valid.) Real ingest is bursty —
// spool batches deliver one router's backlog back-to-back — so this
// keeps the segment log near-empty in both the serial verify runs and
// steady-state collection.
func (s *Sharded) record(sh *shard) {
	total := 0
	for k := range Kinds {
		before := sh.lens[k]
		sh.lens[k] = Kinds[k].Len(sh.store)
		grown := sh.lens[k] - before
		if grown <= 0 {
			continue
		}
		total += grown
		if n := len(sh.segs); n > 0 {
			last := &sh.segs[n-1]
			if int(last.kind) == k && last.off+last.n == before && s.seq.Load() == last.seq {
				last.n += grown
				continue
			}
		}
		sh.segs = append(sh.segs, segment{kind: uint8(k), off: before, n: grown, seq: s.seq.Add(1)})
	}
	s.rows.Add(int64(total))
}

// Rows returns the number of rows held across every kind: the running
// tally of what record saw arrive less what ExtractRouters took out. One
// atomic load, so the segment store sizes its memtable with it per apply.
func (s *Sharded) Rows() int { return int(s.rows.Load()) }

// DedupeLen returns the number of idempotency keys remembered across all
// stripes.
func (s *Sharded) DedupeLen() int { return s.dedupe.Len() }

// RowCounts sums the per-stripe slice lengths without merging — one lock
// acquisition per stripe, no copying. Fleet-size progress logs poll
// this.
func (s *Sharded) RowCounts() RowCounts {
	var rc RowCounts
	for _, sh := range s.shards {
		sh.mu.Lock()
		rc.Routers += len(sh.store.RouterCountry)
		rc.Add(CountRows(sh.store))
		sh.mu.Unlock()
	}
	return rc
}

// Roster returns a merged copy of the router→country metadata across
// all stripes.
func (s *Sharded) Roster() map[string]string {
	defer s.lockAll()()
	return s.rosterLocked()
}

func (s *Sharded) rosterLocked() map[string]string {
	out := make(map[string]string)
	for _, sh := range s.shards {
		for id, cc := range sh.store.RouterCountry {
			out[id] = cc
		}
	}
	return out
}

// Merge reassembles a plain Store snapshot in global arrival order. The
// snapshot shares the (internally synchronized) heartbeat log and copies
// every row; dedupe state stays with the sharded store. All stripes are
// locked for the duration, so the snapshot is consistent.
func (s *Sharded) Merge() *Store {
	defer s.lockAll()()
	out := &Store{Heartbeats: s.Heartbeats, RouterCountry: s.rosterLocked()}
	var total RowCounts
	for _, sh := range s.shards {
		total.Add(CountRows(sh.store))
	}
	for _, k := range Kinds {
		k.Alloc(out, 0, *k.Count(&total))
	}
	for _, r := range s.orderedRefs() {
		Kinds[r.kind].Append(out, r.st, r.off, r.n)
	}
	return out
}

// ref is one shard-local segment as a range of the rows it covers, with
// its arrival stamp and the shard it was recorded in.
type ref struct {
	rowRange
	seq uint64
	sh  *shard
}

// orderedRefs collects every shard's segments sorted by global arrival
// sequence. Callers must hold all stripe locks. Per-shard segment lists
// are already seq-sorted (seqs are taken under the shard lock), so a
// k-way merge would do; a plain sort is simpler and every caller (Merge,
// Save, extract) is far off the hot path.
func (s *Sharded) orderedRefs() []ref {
	var all []ref
	for _, sh := range s.shards {
		for _, seg := range sh.segs {
			all = append(all, ref{rowRange{sh.store, seg.kind, seg.off, seg.n}, seg.seq, sh})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	return all
}

// Save persists a consistent snapshot of the store as the standard CSV
// layout, byte-identical to Merge().Save but with rows streamed straight
// from the shard slices in global arrival order (see saveCSV) — a merged
// copy of every slice would double peak memory at exactly the fleet
// sizes where Save matters. The price is that all stripe locks are held
// for the duration of the write; Save runs at shutdown or checkpoint
// time, never on the ingest path.
func (s *Sharded) Save(dir string) error {
	defer s.lockAll()()
	refs := s.orderedRefs()
	ranges := make([]rowRange, len(refs))
	for i, r := range refs {
		ranges[i] = r.rowRange
	}
	return saveCSV(dir, s.rosterLocked(), s.Heartbeats, ranges)
}
