// Idempotency bookkeeping for the collection pipeline. The upload path
// is at-least-once (the gateway's spool redelivers until acknowledged),
// so the store remembers which idempotency keys it has already applied
// and the collector skips replays. The index lives with the data it
// guards: a collector restart that reuses the store keeps its dedupe
// state, so retries that straddle the restart still apply exactly once.
//
// The window is bounded and FIFO: a replay older than the last
// appliedCap keys of its stripe has been evicted, looks like a new
// upload, and applies again.
package dataset

import "sync"

// appliedCap bounds the dedupe index. Keys are evicted FIFO, so the
// window covers the most recent appliedCap uploads — far longer than any
// client's retry horizon.
const appliedCap = 1 << 20

// AppliedIndex is a bounded set of idempotency keys with FIFO eviction.
// The zero value is ready to use and holds appliedCap keys.
type AppliedIndex struct {
	seen  map[string]bool
	order []string
	head  int
	limit int // 0 means appliedCap
}

// Mark records key and reports whether it was new (i.e. the caller
// should apply the payload). The empty key is always new: unkeyed
// uploads opt out of deduplication.
func (a *AppliedIndex) Mark(key string) bool {
	if key == "" {
		return true
	}
	if a.seen == nil {
		a.seen = make(map[string]bool)
	}
	if a.seen[key] {
		return false
	}
	limit := a.limit
	if limit <= 0 {
		limit = appliedCap
	}
	if len(a.seen) >= limit {
		old := a.order[a.head]
		a.order[a.head] = ""
		a.head++
		delete(a.seen, old)
		if a.head > limit { // amortized compaction of the evicted prefix
			a.order = append([]string(nil), a.order[a.head:]...)
			a.head = 0
		}
	}
	a.seen[key] = true
	a.order = append(a.order, key)
	return true
}

// Len returns the number of remembered keys.
func (a *AppliedIndex) Len() int { return len(a.seen) }

// Keys returns the remembered keys in insertion (FIFO) order, oldest
// first. Entries leave only by eviction at head, so order[head:] is
// exactly the live set.
func (a *AppliedIndex) Keys() []string {
	return append([]string(nil), a.order[a.head:]...)
}

// Dedupe is the idempotency window of one concurrent store: an
// AppliedIndex per stripe, each behind its own lock. A key lives in
// exactly one stripe — the one its router hashes to — always.
//
// It outlives any one Sharded: NewSharded builds a private index, the
// segment store builds one at Open and every memtable generation over
// it, so sealing a generation moves no key. The stripe locks make the
// index safe to read (Len, MatchedKeys) while a Sharded marks through
// it; keeping mark-then-append atomic per key is the job of the shard
// lock of the one Sharded being written.
type Dedupe struct{ stripes []dedupeStripe }

type dedupeStripe struct {
	mu  sync.Mutex
	idx AppliedIndex
}

// NewDedupe returns an empty index of the given stripe count (<= 0 means
// DefaultShards) holding perStripe keys in each (<= 0 means appliedCap).
func NewDedupe(stripes, perStripe int) *Dedupe {
	if stripes <= 0 {
		stripes = DefaultShards
	}
	d := &Dedupe{stripes: make([]dedupeStripe, stripes)}
	for i := range d.stripes {
		d.stripes[i].idx.limit = perStripe
	}
	return d
}

// stripeOf routes a router ID to its stripe (FNV-1a; the empty ID lands
// on a fixed stripe, so unattributed payloads still serialize safely).
func (d *Dedupe) stripeOf(router string) int {
	h := uint32(2166136261)
	for i := 0; i < len(router); i++ {
		h = (h ^ uint32(router[i])) * 16777619
	}
	return int(h % uint32(len(d.stripes)))
}

// Mark records key in router's stripe and reports whether it was new
// (appliers come through Sharded.Apply; this seeds an index directly).
func (d *Dedupe) Mark(router, key string) bool {
	return d.mark(d.stripeOf(router), key)
}

func (d *Dedupe) mark(stripe int, key string) bool {
	st := &d.stripes[stripe]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.idx.Mark(key)
}

// Len returns the number of keys remembered across all stripes.
func (d *Dedupe) Len() int {
	n := 0
	for i := range d.stripes {
		st := &d.stripes[i]
		st.mu.Lock()
		n += st.idx.Len()
		st.mu.Unlock()
	}
	return n
}

// MatchedKeys returns the remembered keys whose router prefix is
// selected by match, stripe by stripe and oldest first within each.
func (d *Dedupe) MatchedKeys(match func(string) bool) []RouterKey {
	var out []RouterKey
	for i := range d.stripes {
		st := &d.stripes[i]
		st.mu.Lock()
		keys := st.idx.Keys()
		st.mu.Unlock()
		for _, k := range keys {
			if r := KeyRouter(k); match(r) {
				out = append(out, RouterKey{Router: r, Key: k})
			}
		}
	}
	return out
}
