// Planned ownership transfer against the durable store. Extraction must
// reach rows that have already been sealed into NPS1 segments, not just
// the live memtable, so moved routers leave nothing behind on disk. A
// matched segment is rewritten in place (same path, same seq range, same
// replaces list) with only the surviving rows — but with its key block
// untouched: the source keeps remembering every moved upload's
// idempotency key, across restarts, so client retries that straddle the
// move still dedupe here instead of resurrecting rows that now live at
// the new owner.
package segment

import (
	"os"
	"slices"

	"natpeek/internal/dataset"
)

// ExtractRouters implements dataset.IngestStore. It runs under
// flushMu, so no seal, flush, or compaction can race it; appliers keep
// writing to the live memtable throughout, and because the memtable is
// extracted last, a row that lands mid-extract is either caught here or
// left for the caller's next pass — never dropped.
//
// Sealed segments are rewritten without the moved rows via the same
// tmp→fsync→rename discipline as a flush, and the in-memory Meta is
// rebuilt alongside (RowCounts serves from cached footers), and each
// OnRewrite subscriber is handed a replay of the segments as rewritten.
// A segment
// that fails to read or rewrite is skipped with the error recorded in
// LastFlushError: its rows stay at the source — misplaced but present —
// which the transfer engine prefers over any chance of loss.
func (s *Store) ExtractRouters(match func(string) bool) (*dataset.Store, []dataset.RouterKey) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()

	moved := &dataset.Store{RouterCountry: make(map[string]string)}

	files, frozen, mem, _ := s.view() // flushMu pins all three: rotation needs it

	rewrote := false
	for _, f := range files {
		b, err := os.ReadFile(f.path)
		if err != nil {
			s.flushErr.Store(err.Error())
			continue
		}
		st, ks, _, err := Decode(b)
		if err != nil {
			s.flushErr.Store(err.Error())
			continue
		}
		hit, rest := dataset.SplitRouters(st, match)
		if dataset.CountRows(hit).Total() == 0 && len(hit.RouterCountry) == 0 {
			continue
		}
		nb := Encode(rest, ks, f.meta.Seq, f.meta.Replaces)
		if err := writeAtomic(f.path, nb); err != nil {
			s.flushErr.Store(err.Error())
			continue
		}
		nm := metaOf(rest, f.meta.Seq, f.meta.Replaces, len(ks))
		s.segMu.Lock()
		for i := range s.segs {
			if s.segs[i].path == f.path {
				s.segs[i].meta, s.segs[i].size = nm, int64(len(nb))
			}
		}
		s.publishLive()
		s.segMu.Unlock()
		appendStore(moved, hit)
		rewrote = true
	}
	if rewrote {
		s.segMu.RLock()
		subs := slices.Clone(s.onRewrite)
		s.segMu.RUnlock()
		for _, fn := range subs {
			fn(s.replay)
		}
	}

	if frozen != nil {
		appendStore(moved, frozen.sh.ExtractRows(match))
	}
	appendStore(moved, mem.sh.ExtractRows(match))

	s.segMu.Lock()
	for id, cc := range s.roster {
		if match(id) {
			moved.RouterCountry[id] = cc
			delete(s.roster, id)
		}
	}
	s.segMu.Unlock()

	// One scan of the index the generations share, after the last row is
	// out: a key is marked before its row lands, so every extracted row's
	// key is in it (unless the FIFO window has moved past it).
	return moved, s.dedupe.MatchedKeys(match)
}
