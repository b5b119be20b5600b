// Planned ownership transfer: when the cluster resizes, a node must
// hand a router's full row set — not just its journaled tail — to the
// router's new owner. The store side of that hand-off lives here: an
// atomic extract that removes those rows while *retaining* their
// idempotency keys, so a client retry that arrives after the move still
// dedupes at the old home instead of resurrecting a row that now lives
// elsewhere.
package dataset

import "strings"

// RouterKey pairs an idempotency key with the router whose rows it
// guarded. The router is recovered from the key's "<router>:..." prefix
// (the convention every keyed client follows), so the set can be
// re-seeded at a destination with the same stripe routing.
type RouterKey struct {
	Router string
	Key    string
}

// KeyRouter extracts the router prefix of an idempotency key
// ("<router>:..."). Keys without a prefix belong to the unattributed
// router "".
func KeyRouter(key string) string {
	if i := strings.IndexByte(key, ':'); i > 0 {
		return key[:i]
	}
	return ""
}

// RebalanceStore is the store surface the cluster's transfer engine
// needs on top of plain ingestion. Both IngestStore implementations
// (*Sharded and the segment store) provide it.
//
// ExtractRouters removes the rows and roster entries of the routers
// selected by match and returns them with those routers' remembered
// idempotency keys — atomically, so no concurrently-arriving row is ever
// silently dropped between snapshot and eviction. The keys are returned
// but NOT forgotten: the source keeps rejecting replays of moved
// uploads, which is what keeps exactly-once intact while a retry horizon
// straddles the move. Heartbeat logs are not part of the snapshot (in
// cluster mode they live at the front tier).
type RebalanceStore interface {
	IngestStore
	ExtractRouters(match func(router string) bool) (*Store, []RouterKey)
}

var _ RebalanceStore = (*Sharded)(nil)

// newRows returns a store that holds rows and a roster only: no
// heartbeat log.
func newRows() *Store { return &Store{RouterCountry: make(map[string]string)} }

// SplitRouters partitions a plain Store's rows and roster by router:
// rows whose RouterID is selected by match land in hit, everything else
// in rest, with per-slice order preserved on both sides. Neither output
// carries a heartbeat log. The segment store uses this to filter decoded
// segment files during an extract.
func SplitRouters(st *Store, match func(string) bool) (hit, rest *Store) {
	hit, rest = newRows(), newRows()
	for id, cc := range st.RouterCountry {
		if match(id) {
			hit.RouterCountry[id] = cc
		} else {
			rest.RouterCountry[id] = cc
		}
	}
	for _, k := range Kinds {
		k.Split(hit, rest, st, 0, k.Len(st), match)
	}
	return hit, rest
}

// ExtractRouters implements RebalanceStore: ExtractRows, and under the
// same lock acquisition the matched routers' idempotency keys, which
// stay in the index.
func (s *Sharded) ExtractRouters(match func(string) bool) (*Store, []RouterKey) {
	defer s.lockAll()()
	return s.extractLocked(match), s.dedupe.MatchedKeys(match)
}

// ExtractRows removes the matched routers' rows and roster entries and
// returns them in global arrival order, all stripes locked throughout.
// The dedupe index is not read: a store that owns an index shared by
// several Sharded generations extracts rows from each and asks the index
// for the keys once.
func (s *Sharded) ExtractRows(match func(string) bool) *Store {
	defer s.lockAll()()
	return s.extractLocked(match)
}

// extractLocked splits every segment, in global arrival order, between
// the returned store and its stripe's rebuilt one. Surviving rows keep
// their segment's sequence stamp, offsets re-based onto the rebuilt
// slices, and segments left empty vanish — a later Merge interleaves the
// survivors exactly as if the moved rows had never arrived. Caller holds
// all stripe locks.
func (s *Sharded) extractLocked(match func(string) bool) *Store {
	moved := newRows()
	refs := s.orderedRefs() // before any stripe's log is rebuilt
	for _, sh := range s.shards {
		for id, cc := range sh.store.RouterCountry {
			if match(id) {
				moved.RouterCountry[id] = cc
				delete(sh.store.RouterCountry, id)
			}
		}
		sh.store, sh.segs, sh.lens = &Store{RouterCountry: sh.store.RouterCountry}, nil, [NumKinds]int{}
	}
	for _, r := range refs {
		kind, kept := &Kinds[r.kind], r.sh.store
		off := kind.Len(kept)
		kind.Split(moved, kept, r.st, r.off, r.n, match)
		if n := kind.Len(kept) - off; n > 0 {
			r.sh.segs = append(r.sh.segs, segment{kind: r.kind, off: off, n: n, seq: r.seq})
			r.sh.lens[r.kind] = off + n
		}
	}
	s.rows.Add(-int64(CountRows(moved).Total()))
	return moved
}
