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
// Its roster is kept beside the store: an apply registers into the
// store's RouterCountry, which is empty before it, and record moves what
// it registered into roster, logging each router whose country that
// changed in regs.
type shard struct {
	mu     sync.Mutex
	store  *Store
	segs   []segment
	lens   [NumKinds]int
	roster map[string]string
	regs   []reg
}

// reg is one change to a stripe's roster: a router registered, or moved
// to another country, stamped from the store's registration sequence.
type reg struct {
	at uint64
	id string
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
	regSeq atomic.Uint64 // stamps roster changes (reg)
	rows   atomic.Int64  // rows held across all stripes and kinds
	// extracts counts extractions; every stripe lock guards it, so a
	// reader holding all of them sees the segments it counts.
	extracts uint64
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
		s.shards[i] = &shard{store: newRows(), roster: make(map[string]string)}
	}
	return s
}

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
// Store, whose RouterCountry holds only what it registers, and anything
// else it does is invisible to Merge.
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
// segments and adds it to the row tally, and moves what it registered
// into the stripe's roster (register). Must be called with the shard
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
	s.register(sh)
}

// register moves the routers an apply registered into the stripe's
// roster, and logs those it adds or moves. The next apply registers
// into a new map: clearing or ranging a map costs as much as it ever
// held, and an apply that registers is rare.
func (s *Sharded) register(sh *shard) {
	if len(sh.store.RouterCountry) == 0 {
		return
	}
	for id, cc := range sh.store.RouterCountry {
		if old, ok := sh.roster[id]; !ok || old != cc {
			sh.roster[id] = cc
			sh.regs = append(sh.regs, reg{at: s.regSeq.Add(1), id: id})
		}
	}
	sh.store.RouterCountry = make(map[string]string)
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
		rc.Routers += len(sh.roster)
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
		for id, cc := range sh.roster {
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
	out, _ := s.MergeFrom(Cursor{})
	return out
}

// Cursor marks how far a chain of MergeFrom calls has read a Sharded
// store. The zero Cursor is the start.
type Cursor struct {
	seq      uint64 // the last segment read
	n        int    // its rows read
	reg      uint64 // the last roster change read
	extracts uint64 // the store's extractions as of the read
}

// Restarted reports whether c, returned by MergeFrom(from), was read
// from the start because an extraction came between the two reads.
func (c Cursor) Restarted(from Cursor) bool { return c.extracts != from.extracts }

// MergeFrom is Merge from c on: the rows recorded since the read that
// returned c, in global arrival order, the routers registered or moved
// since, with their countries as Merge has them, and the cursor past
// them. A record only ever grows the globally latest segment in place
// (see record), so the rows after c are a suffix of what Merge would
// return: a chain of MergeFrom results from the zero Cursor concatenates
// to Merge, and its rosters laid over one another, later ones winning,
// are Merge's. An extraction re-bases the segments a cursor points into
// and takes routers off the roster: a cursor taken before one reads from
// the start, the whole roster included.
func (s *Sharded) MergeFrom(c Cursor) (*Store, Cursor) {
	defer s.lockAll()()
	if c.extracts != s.extracts {
		c = Cursor{extracts: s.extracts}
	}
	refs := s.refsFrom(c)
	roster := s.rosterSince(c.reg)
	c.reg = s.regSeq.Load()
	out := &Store{Heartbeats: s.Heartbeats, RouterCountry: roster}
	var total RowCounts
	for _, r := range refs {
		*Kinds[r.kind].Count(&total) += r.n
	}
	for _, k := range Kinds {
		k.Alloc(out, 0, *k.Count(&total))
	}
	for _, r := range refs {
		Kinds[r.kind].Append(out, r.st, r.off, r.n)
	}
	if len(refs) > 0 {
		last := refs[len(refs)-1]
		if last.seq != c.seq {
			c.seq, c.n = last.seq, 0
		}
		c.n += last.n
	}
	return out, c
}

// rosterSince returns the routers whose registration changed after
// roster change at, the whole roster for 0, each with the country Merge
// gives it: a router registered in several stripes has the last
// stripe's. Callers must hold all stripe locks. Each stripe's log is in
// stamp order (stamps are taken under the stripe lock), so it is
// searched for its first change past at.
func (s *Sharded) rosterSince(at uint64) map[string]string {
	if at == 0 {
		return s.rosterLocked()
	}
	out := make(map[string]string)
	for _, sh := range s.shards {
		i := sort.Search(len(sh.regs), func(i int) bool { return sh.regs[i].at > at })
		for _, r := range sh.regs[i:] {
			out[r.id] = ""
		}
	}
	for id := range out {
		for _, sh := range s.shards {
			if cc, ok := sh.roster[id]; ok {
				out[id] = cc
			}
		}
	}
	return out
}

// ref is one shard-local segment, or the rows of one past a cursor, with
// the store it indexes and the shard it was recorded in.
type ref struct {
	segment
	st *Store
	sh *shard
}

// refsFrom collects every shard's segments past c sorted by global
// arrival sequence; the segment c stopped in contributes the rows
// recorded into it since. Callers must hold all stripe locks. Per-shard
// segment lists are already seq-sorted (seqs are taken under the shard
// lock), so each is searched for its first segment past c; the few
// collected then sort.
func (s *Sharded) refsFrom(c Cursor) []ref {
	var all []ref
	for _, sh := range s.shards {
		i := sort.Search(len(sh.segs), func(i int) bool { return sh.segs[i].seq >= c.seq })
		for _, seg := range sh.segs[i:] {
			if seg.seq == c.seq {
				if seg.n <= c.n {
					continue
				}
				seg.off, seg.n = seg.off+c.n, seg.n-c.n
			}
			all = append(all, ref{seg, sh.store, sh})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	return all
}
