# Tier-1 verification plus the race/bench targets the telemetry PR added.
#
#   make check           # vet + build + tests with -race + verify + load + cluster + segment + rebalance + figures gates + natbench build
#   make check-verify    # golden runs, conservation invariants, parser fuzzing
#   make check-load      # sharded-store stress + admission + loadgen soaks, -race; NPB1 apply alloc budget without
#   make check-cluster   # multi-node routing/replication/failover + chaos soak, -race
#   make check-segment   # segment engine: crash windows, fuzz seeds, goldens, -race
#   make check-rebalance # elastic scale-in/out: ring property, epoch, soaks, goldens, -race
#   make check-figures   # incremental analysis + dashboard: snapshot/rollup equivalence, seal handshake, -race; alloc budget without
#   make check-bench     # the benchmark module builds and its smoke run passes
#   make lines           # non-test line counts of the packages ROADMAP item 4 tracks
#   make bench PR=<n>  # natbench, five sets of all four workloads -> BENCH_<n>.json, compared with the previous one
#   make bench-paper   # full reproduction driver (tables/figures + ablations)

GO ?= go

# Per-target budget for the short fuzz shake-out in check-verify.
FUZZTIME ?= 10s

.PHONY: check vet build test race bench bench-paper bench-telemetry \
	check-reliability check-verify check-load check-cluster check-segment \
	check-rebalance check-figures check-bench fuzz-seeds lines

check: vet build race check-verify check-load check-cluster check-segment check-rebalance check-figures check-bench

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Non-test lines of Go per package ROADMAP item 4 tracks, and the
# five-package total its target is stated in (codec is listed beside it).
LINES_PKGS = wire segment cluster dataset collector
lines:
	@total=0; for p in $(LINES_PKGS) codec; do \
		n=$$(ls internal/$$p/*.go | grep -v _test.go | xargs cat | wc -l); \
		printf '%-10s %6d\n' $$p $$n; \
		[ $$p = codec ] || total=$$((total + n)); \
	done; printf '%-10s %6d  ($(LINES_PKGS))\n' total $$total

# The repository's one benchmark and its checked-in trajectory: natbench
# (benchmarks/, catalogue in BENCHMARK.json) runs all four workloads
# five times and the result file IS BENCH_<n>.json — header with commit,
# nproc and GOMAXPROCS, medians and quartiles per metric. It is then
# compared with the highest-numbered earlier natbench-format file
# (BENCH_5..9.json are the retired microbenchmark format, kept as
# history); the compare is a report, not a gate — the box is too noisy
# to fail a build on. About 20 minutes; run nothing else beside it.
bench:
	@test -n "$(PR)" || { echo "usage: make bench PR=<n>"; exit 2; }
	bash benchmarks/run.sh repeat -n 5 -seed 100 -out BENCH_$(PR).json
	@prev=$$(grep -l '"frozen_rows_per_s"' BENCH_*.json | sed 's/[^0-9]//g' | awk '$$1 < $(PR)' | sort -n | tail -1); \
	if [ -n "$$prev" ]; then bash benchmarks/run.sh compare BENCH_$$prev.json BENCH_$(PR).json || true; \
	else echo "BENCH_$(PR).json is the first natbench-format file: nothing to compare with"; fi

# The full paper-reproduction driver (tables/figures + ablations).
bench-paper:
	$(GO) test -bench=. -benchmem

# The telemetry-overhead gate: counter/gauge/histogram updates on the
# capture hot path must stay cheap (< 25 ns/op for counter increments).
bench-telemetry:
	$(GO) test -run='^$$' -bench='BenchmarkTelemetry' -benchmem

# The upload-pipeline reliability gate, under the race detector: the
# spool suite (retry/overflow/journal/concurrency), the collector
# fault-injection suite (zero row loss through 30% failed POSTs plus a
# server restart, idempotency dedupe, journal recovery across a client
# restart), the decode-path regressions and the upload-shape
# equivalence tests (NPB1 batch = JSON batch = direct posts, at a
# collector and through a front; gzip'd direct posts through a front;
# the server flags that tune a collector, stand-alone and in a cluster
# node), and the gateway export/throttle regressions. CI calls this
# target rather than listing tests of its own.
check-reliability:
	$(GO) test -race ./internal/spool/
	$(GO) test -race -run 'TestZeroRowLoss|TestSpoolJournal|TestBatch|TestIdempotency|TestOversized|TestChunked|TestErrorResponses|TestClientErrSurfacesFailures|TestWire|TestGzip|TestDirectEndpoint|TestBinary' ./internal/collector/
	$(GO) test -race -run 'TestClusterJSONBatchEquivalent|TestClusterDirectEndpointProxy|TestFrontBodyLimits' ./internal/cluster/
	$(GO) test -race ./cmd/bismark-server/
	$(GO) test -race -run 'TestFlowExport|TestPowerOffExports|TestScanThrottle' ./internal/gateway/

# The correctness-harness gate:
#   1. golden runs — a deterministic deployment through the real
#      agent→spool→HTTP→collector path, snapshots compared against
#      testdata/golden (regenerate with: go test ./internal/verify -update);
#   2. cross-layer conservation invariants and the determinism check
#      (same seed twice → byte-identical snapshots);
#   3. round-trip and export regressions for the wire/disk formats;
#   4. a short fuzz shake-out of every wire/disk parser ($(FUZZTIME)
#      each) on top of their checked-in seed corpora.
check-verify: fuzz-seeds
	$(GO) test -race -timeout 60m ./internal/verify/
	$(GO) test -race -run 'TestThroughput|TestWriterReaderRoundTrip|TestReaderTruncatedStream|TestJournal' \
		./internal/gateway/ ./internal/pcap/ ./internal/spool/
	$(GO) test -run='^$$' -fuzz='FuzzParse' -fuzztime=$(FUZZTIME) ./internal/dns/
	$(GO) test -run='^$$' -fuzz='FuzzReader' -fuzztime=$(FUZZTIME) ./internal/pcap/
	$(GO) test -run='^$$' -fuzz='FuzzDecode' -fuzztime=$(FUZZTIME) ./internal/packet/
	$(GO) test -run='^$$' -fuzz='FuzzJournalReplay' -fuzztime=$(FUZZTIME) ./internal/spool/
	$(GO) test -run='^$$' -fuzz='FuzzRequestDecode' -fuzztime=$(FUZZTIME) ./internal/collector/
	$(GO) test -run='^$$' -fuzz='FuzzCodec' -fuzztime=$(FUZZTIME) ./internal/codec/
	$(GO) test -run='^$$' -fuzz='FuzzWireDecode' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz='FuzzSegmentDecode' -fuzztime=$(FUZZTIME) ./internal/segment/

# The scale gate, under the race detector:
#   1. sharded-store stress (32 shards, concurrent appliers + replays)
#      and the CSV-identity regression against the single-lock seed store;
#   2. collector admission control — 429 + Retry-After when ingest is
#      saturated, control plane exempt;
#   3. loadgen soaks — ~200 synthetic routers with strict row accounting,
#      clean and under fault injection / throttling;
#   4. analysis figures on a 10k-router synthetic store within their
#      per-figure time budgets (O(n^2) regression guard);
#   5. the NPB1 apply allocation budget — the same per-item constant at
#      8 and at 256 items — which the race detector's own allocations
#      would drown, so it runs without.
check-load:
	$(GO) test -race -run 'TestSharded' ./internal/dataset/
	$(GO) test -race -run 'TestSaturatedIngest|TestControlPlaneExempt' ./internal/collector/
	$(GO) test -run 'TestBatchApplyAllocBudget' ./internal/collector/
	$(GO) test -race ./internal/loadgen/
	$(GO) test -race -run 'TestScale' ./internal/analysis/

# The cluster gate, under the race detector:
#   1. the multi-node suite — consistent-hash routing spread, retry
#      dedupe through the front, JSON/direct endpoint proxying,
#      journal-replay failover, and rejoin manifest seeding;
#   2. the chaos soak — a 3-node cluster under a live loadgen fleet
#      with one node killed mid-run and rejoined, gated on zero lost
#      and zero duplicated rows;
#   3. a short fuzz shake-out of the NPC1 control-plane codec on top of
#      its checked-in seed corpus.
check-cluster:
	$(GO) test -race ./internal/cluster/
	$(GO) test -run='^$$' -fuzz='FuzzControlDecode' -fuzztime=$(FUZZTIME) ./internal/cluster/

# The elastic-rebalancing gate, under the race detector:
#   1. the ring relocation property/metamorphic suite — adding one node
#      moves at most its fair share of keys, and every moved key lands
#      on the added node; replica sets stay stable for unmoved keys;
#   2. the epoch state machine — CRDT-shaped merge of committed/pending
#      epochs, version precedence, commit retirement, ring selection;
#   3. the ownership-extraction suites — dataset and segment stores
#      carve out a router subset (rows + dedupe keys) without touching
#      unmatched rows, concurrent with ingest, across restarts — and the
#      store-owned dedupe index they read: shared across memtable
#      generations, FIFO window across a seal and a reopen, replays
#      racing Flush and ExtractRouters, seal cost flat in index size;
#   4. the scale-event suite — mid-run join and drain with ownership
#      accounting, epoch fencing (whole-batch 429 + Retry-After during
#      cutover), two-front convergence, and the scale-out/drain chaos
#      soaks under live loadgen (short profile), gated on zero lost and
#      zero duplicated rows;
#   5. the rebalance goldens — a join and a drain fired mid-run through
#      the full verify deployment, merged snapshots byte-identical to
#      the single-node golden (JSON-wire variants run in full mode via
#      check-verify).
check-rebalance:
	$(GO) test -race -run 'TestRingRelocationProperty|TestRingReplicaSetStability|TestMembership' ./internal/cluster/
	$(GO) test -race -run 'TestKeyRouter|TestExtract|TestSplitRouters|TestShardedOverSharedDedupe|TestDedupe|TestReplay|TestSeal' ./internal/dataset/ ./internal/segment/
	$(GO) test -race -short -run 'TestClusterScaleOutTransfersOwnership|TestClusterDrainViaFrontEndpoint|TestFrontFencesDuringCutover|TestTwoFrontsConvergeOnEpoch|TestChaosSoakScaleOut|TestChaosSoakDrain' ./internal/cluster/
	$(GO) test -race -short -run 'TestClusterGoldenJoinMidRun|TestClusterGoldenDrainMidRun' ./internal/verify/

# The incremental-figures gate:
#   1. internal/analysis and internal/figures under the race detector —
#      the copy-free snapshot against the clone-and-fold recipe, the flow
#      rollup against the per-exhibit oracles, renders racing appends and
#      seals (every page a whole prefix of the stream), the seal
#      generation handshake (a page taken between a chunk's publication
#      and its fold), the page header describing its own snapshot;
#   2. the snapshot allocation budget — the same handful of allocations
#      at 10k and at 100k aggregates — which the race detector's own
#      allocations would drown, so it runs without.
check-figures:
	$(GO) test -race ./internal/analysis/ ./internal/figures/
	$(GO) test -run 'TestSnapshotAllocBudget' ./internal/figures/

# benchmarks/ is a module of its own, so `go build ./... && go test ./...`
# at the root never compiles it. This does: an internal/ API change that
# breaks natbench fails here, not at the next benchmark run. The tests
# include a smoke run of every workload at ~1/50 scale.
check-bench:
	cd benchmarks && $(GO) test ./...

# The segment-storage gate, under the race detector:
#   1. the segment engine suite — encode/decode round-trips, the
#      merge-order substitution contract against the sharded store,
#      one dedupe index across the flush boundary and across a reopen
#      (inside and older than its FIFO window), crash-window
#      regressions (truncated tail, torn footer, kill right after the
#      flush, tmp leftovers, compaction supersession healing), and the
#      sealed-segment scanner (per-file-decode property at 1 and 4
#      workers, reads racing Compact/ExtractRouters, a bad segment left
#      out whole);
#   2. the incremental-analysis equivalence suite — partial folds,
#      merges, and the live dashboard against the batch figures;
#   3. the segment-backed verify goldens — the storage engine swapped in
#      under the full deployment (single-node, JSON wire, 3-node
#      cluster), snapshots byte-identical to the in-memory golden;
#   4. a short fuzz shake-out of the NPS1 decoder on top of its
#      checked-in seed corpus.
check-segment:
	$(GO) test -race ./internal/segment/
	$(GO) test -race -run 'TestPartialEquivalence|TestDashboard' ./internal/figures/
	$(GO) test -race -run 'Segment' ./internal/verify/
	$(GO) test -run='^$$' -fuzz='FuzzSegmentDecode' -fuzztime=$(FUZZTIME) ./internal/segment/

# Replay the checked-in fuzz corpora as plain unit tests (fast, -race).
fuzz-seeds:
	$(GO) test -race -run 'Fuzz' ./internal/dns/ ./internal/pcap/ ./internal/packet/ ./internal/spool/ ./internal/collector/ ./internal/codec/ ./internal/wire/ ./internal/cluster/ ./internal/segment/
