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
}

// HeartbeatLog returns the shared heartbeat log, satisfying IngestStore.
func (s *Sharded) HeartbeatLog() *heartbeat.Log { return s.Heartbeats }

var _ IngestStore = (*Sharded)(nil)
