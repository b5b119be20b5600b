package dataset

import "natpeek/internal/heartbeat"

// IngestStore is the contract the collector (and everything above it —
// cluster nodes, verify harness, loadgen targets) writes into. The
// server's store is segment.Store, which fronts a bounded Sharded
// memtable with immutable on-disk columnar segments; *Sharded, the
// all-in-memory lock-striped store, implements it too, for tests and
// probes that need no disk. Keeping the collector against this
// interface is what lets the storage engine change underneath a running
// pipeline without touching ingest, routing, or verification.
type IngestStore interface {
	// Apply runs one upload's mutation exactly once per idempotency
	// key; it reports false for a replayed key.
	Apply(router, key string, apply func(*Store)) bool
	// Append is Apply without deduplication.
	Append(router string, apply func(*Store))
	// Merge materializes a consistent plain-Store snapshot in global
	// arrival order (the analysis/CSV view).
	Merge() *Store
	// RowCounts summarizes per-data-set row totals without merging.
	RowCounts() RowCounts
	// DedupeLen reports how many idempotency keys are remembered.
	DedupeLen() int
	// HeartbeatLog exposes the shared, internally-synchronized
	// heartbeat log (UDP datagrams bypass the row path entirely).
	HeartbeatLog() *heartbeat.Log
	// ExtractRouters removes the rows and roster entries of the routers
	// match selects and returns them with those routers' remembered
	// idempotency keys — atomically, so no concurrently-arriving row is
	// ever silently dropped between snapshot and eviction. The keys are
	// returned but NOT forgotten: the source keeps rejecting replays of
	// moved uploads, which keeps exactly-once intact while a retry
	// horizon straddles the move. Heartbeats are not part of the
	// snapshot (in cluster mode they live at the front tier). The
	// cluster's transfer engine is its one caller.
	ExtractRouters(match func(router string) bool) (*Store, []RouterKey)
}

// HeartbeatLog returns the shared heartbeat log, satisfying IngestStore.
func (s *Sharded) HeartbeatLog() *heartbeat.Log { return s.Heartbeats }

var _ IngestStore = (*Sharded)(nil)
