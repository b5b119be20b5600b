# Tier-1 verification plus the race/bench targets the telemetry PR added.
#
#   make check           # vet + build + tests with -race + verify + load + cluster + segment + rebalance + figures gates + natbench build
#   make check-verify    # golden runs, conservation invariants, parser fuzzing
#   make check-load      # sharded-store stress + admission + loadgen soaks, -race; NPB1 apply alloc budget without
#   make check-cluster   # multi-node routing/replication/failover + chaos soak, -race
#   make check-segment   # segment engine: crash windows, fuzz seeds, goldens, -race
#   make check-rebalance # elastic scale-in/out: ring property, epoch, soaks, goldens, -race
#   make check-figures   # incremental analysis + dashboard: FuzzLivePage's schedules and a shake-out, seal handshake, -race; alloc budgets without
#   make check-bench     # the benchmark module builds and its smoke run passes
#   make lines           # non-test line counts of the packages ROADMAP item 7 tracks, and of the read side
#   make bench PR=<n>  # natbench, five sets of all four workloads -> BENCH_<n>.json, compared with the previous one

GO ?= go

# Per-target budget for the short fuzz shake-out in check-verify.
FUZZTIME ?= 10s

.PHONY: check vet build test race bench bench-telemetry \
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

# Non-test lines of Go per package ROADMAP item 7 tracks, and the
# five-package total its target is stated in. The read side — codec,
# analysis, figures and stats — is listed beside it, outside the total,
# with a subtotal of its own.
LINES_PKGS = wire segment cluster dataset collector
LINES_BESIDE = codec analysis figures stats
lines:
	@total=0; read=0; for p in $(LINES_PKGS) $(LINES_BESIDE); do \
		n=$$(ls internal/$$p/*.go | grep -v _test.go | xargs cat | wc -l); \
		printf '%-10s %6d\n' $$p $$n; \
		case " $(LINES_BESIDE) " in *" $$p "*) read=$$((read + n));; *) total=$$((total + n));; esac; \
	done; printf '%-10s %6d  ($(LINES_PKGS))\n' total $$total; \
	printf '%-10s %6d  ($(LINES_BESIDE))\n' read-side $$read

# The repository's one benchmark and its checked-in trajectory: natbench
# (benchmarks/, catalogue in BENCHMARK.json) runs all four workloads
# five times and the result file IS BENCH_<n>.json — header with commit,
# nproc and GOMAXPROCS, medians and quartiles per metric. It is then
# compared with the highest-numbered earlier natbench-format file (found
# by its "frozen_rows_per_s" header key); the compare is a report, not a
# gate — the box is too noisy to fail a build on. About 20 minutes; run
# nothing else beside it.
bench:
	@test -n "$(PR)" || { echo "usage: make bench PR=<n>"; exit 2; }
	bash benchmarks/run.sh repeat -n 5 -seed 100 -out BENCH_$(PR).json
	@prev=$$(grep -l '"frozen_rows_per_s"' BENCH_*.json | sed 's/[^0-9]//g' | awk '$$1 < $(PR)' | sort -n | tail -1); \
	if [ -n "$$prev" ]; then bash benchmarks/run.sh compare BENCH_$$prev.json BENCH_$(PR).json || true; \
	else echo "BENCH_$(PR).json is the first natbench-format file: nothing to compare with"; fi

# The telemetry-overhead gate: counter/gauge/histogram updates on the
# capture hot path must stay cheap (< 25 ns/op for counter increments).
bench-telemetry:
	$(GO) test -run='^$$' -bench='BenchmarkTelemetry' -benchmem ./internal/telemetry/ ./internal/capture/

# The upload-pipeline reliability gate, under the race detector: the
# spool suite (retry/overflow/journal/concurrency), the collector
# fault-injection suite (zero row loss through 30% failed POSTs plus a
# server restart, idempotency dedupe, journal recovery across a client
# restart), the decode-path regressions and the upload-shape
# equivalence tests (NPB1 batch = JSON batch = direct posts, at a
# collector and through a front, and FuzzBatchTranscode's seeds; the
# front's rows through failover replay and transfer; gzip'd batches at
# a collector and gzip'd direct posts through a front; one Accept-Post
# value from a collector, a cluster node and a front;
# the server flags that tune a collector, stand-alone and in a cluster
# node), the client's typed uploads (the NPB1 body equals the JSON
# detour's bytes, the spool owns its rows, dead letters, one registration
# upload per client, a row with a time NPB1 does not carry dropped at
# enqueue, not resent with its batch, and the one time range the client
# checks and the decoder enforces) with the enqueue-to-wire allocation budget (without
# the race detector, whose allocations would drown it), and the gateway
# export/throttle regressions. CI calls this target rather than listing
# tests of its own.
check-reliability:
	$(GO) test -race ./internal/spool/
	$(GO) test -race -run 'TestZeroRowLoss|TestSpoolJournal|TestBatch|TestIdempotency|TestOversized|TestChunked|TestErrorResponses|TestClientErrSurfacesFailures|TestGzip|TestDirectEndpoint|TestBinary|FuzzBatchTranscode|TestTypedUploadMatchesJSONDetour|TestSpoolOwnsEnqueuedRows|TestSendBatchDeadLettersMalformedItems|TestRegistrationCountedOnce|TestEnqueueDropsTimesNPB1CannotCarry' ./internal/collector/
	$(GO) test -race -run 'TestCheckTimesMatchesDecoder' ./internal/wire/
	$(GO) test -run 'TestEnqueueToWireAllocBudget' ./internal/collector/
	$(GO) test -race -run 'TestClusterJSONBatchEquivalent|TestClusterDirectEndpointProxy|TestFrontBodyLimits|TestAcceptPostAdvertisement' ./internal/cluster/
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
#      each) on top of their checked-in seed corpora, and of Fig. 16's
#      fixed-point appender against strconv's 'f' format.
check-verify: fuzz-seeds
	$(GO) test -race -timeout 60m ./internal/verify/
	$(GO) test -race -run 'TestThroughput|TestWriterReaderRoundTrip|TestReaderTruncatedStream|TestJournal' \
		./internal/gateway/ ./internal/pcap/ ./internal/spool/
	$(GO) test -run='^$$' -fuzz='FuzzParse' -fuzztime=$(FUZZTIME) ./internal/dns/
	$(GO) test -run='^$$' -fuzz='FuzzReader' -fuzztime=$(FUZZTIME) ./internal/pcap/
	$(GO) test -run='^$$' -fuzz='FuzzDecode' -fuzztime=$(FUZZTIME) ./internal/packet/
	$(GO) test -run='^$$' -fuzz='FuzzJournalReplay' -fuzztime=$(FUZZTIME) ./internal/spool/
	$(GO) test -run='^$$' -fuzz='FuzzRequestDecode' -fuzztime=$(FUZZTIME) ./internal/collector/
	$(GO) test -run='^$$' -fuzz='FuzzBatchTranscode' -fuzztime=$(FUZZTIME) ./internal/collector/
	$(GO) test -run='^$$' -fuzz='FuzzCodec' -fuzztime=$(FUZZTIME) ./internal/codec/
	$(GO) test -run='^$$' -fuzz='FuzzWireDecode' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz='FuzzSplit' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz='FuzzWireRoundTrip' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz='FuzzSegmentDecode' -fuzztime=$(FUZZTIME) ./internal/segment/
	$(GO) test -run='^$$' -fuzz='FuzzSegmentSplice' -fuzztime=$(FUZZTIME) ./internal/segment/
	$(GO) test -run='^$$' -fuzz='FuzzParseMatchesScanf' -fuzztime=$(FUZZTIME) ./internal/mac/
	$(GO) test -run='^$$' -fuzz='FuzzAppendFixed2' -fuzztime=$(FUZZTIME) ./internal/figures/

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
#      journal-replay failover, the first-write gate (a rejoined node
#      seeds its dedupe index at each router's first keyed write, on
#      every path a keyed write arrives by; a reborn node is not served
#      the keys of frames whose rows died with it), and planned
#      transfers carrying stored rows unchanged, whatever their times;
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
#      the single-node golden.
check-rebalance:
	$(GO) test -race -run 'TestRingRelocationProperty|TestRingReplicaSetStability|TestMembership' ./internal/cluster/
	$(GO) test -race -run 'TestKeyRouter|TestExtract|TestSplitRouters|TestShardedOverSharedDedupe|TestDedupe|TestReplay|TestSeal' ./internal/dataset/ ./internal/segment/
	$(GO) test -race -short -run 'TestClusterScaleOutTransfersOwnership|TestClusterDrainViaFrontEndpoint|TestFrontFencesDuringCutover|TestTwoFrontsConvergeOnEpoch|TestChaosSoakScaleOut|TestChaosSoakDrain' ./internal/cluster/
	$(GO) test -race -short -run 'TestClusterGoldenJoinMidRun|TestClusterGoldenDrainMidRun' ./internal/verify/

# The incremental-figures gate:
#   1. internal/analysis and internal/figures under the race detector —
#      the copy-free snapshot against the clone-and-fold recipe, the
#      rollup (flows and the folded kept kinds) against the per-exhibit
#      row-scan oracles, renders racing appends and seals (every page a
#      whole prefix of the stream, every exhibit on it the batch one over
#      that prefix), the seal generation handshake (a page taken between
#      a chunk's publication and its fold), the page header describing
#      its own snapshot, Fig. 15/16 taking only "up" and "down" links
#      (batch and page alike); FuzzLivePage's checked-in schedules —
#      uploads of every row kind, rows that take bytes off a pair,
#      re-registrations through any stripe, seals, failed commits,
#      compactions, extractions (sealed routers too, the dashboard
#      folding its partial anew from the rewritten segments), reopens,
#      heartbeats (in order, off cadence, repeated, recorded runs) and
#      registrations of routers with no rows, with pages between — every
#      page equal to the batch exhibits over the store and its rollup to
#      RollupOf's; a page of no new rows sharing the last page's
#      aggregates; a page making the availability entry only of a router
#      whose beats, home summary or country moved, and a heartbeat log
#      whose per-router versions move exactly when it records something; two readers' pages, which share home summaries and
#      rosters, racing seals (race_test.go, -race only); and the memtable
#      cursor: a chain of MergeFrom reads beside concurrent appends equal
#      to Merge;
#   2. the allocation budgets — a snapshot's: the same at 10k and at
#      100k aggregates; a whole render's: counts and bytes each within
#      10 % over the same tail with four times the sealed history; a
#      capture's bytes after each seal: within 10 % over four times the
#      history; a live page's: counts and bytes each within 10 % over a
#      256- and a 4,096-upload tail, 8 uploads between pages; the heap
#      a series keeps over 1,000 seals with a page
#      after each: about its size — which the race detector's own
#      allocations would drown, so they run without; a live page's
#      allocations over BenchmarkLivePage's fixture, rendered to the text
#      GET /figures writes: within a budget, and the bytes it leaves
#      live the same at 512 and 4,096 routers; the home summaries
#      a live page computes over a 512-router fleet: at most one per home
#      the rows since the last page, or a seal, touched; Table 2 and Figs.
#      3–6 over the seed-7 study, as a batch and as a carried page: under
#      5,000 allocations each; and the exhibit ledger (testdata/exhibits.sha256: every
#      exhibit's printed text over three inputs, batch and page) and the
#      §7 usage-beyond-the-US claim over a GlobalTraffic world, too heavy
#      for -race;
#   3. selection over sorted runs against a full sort (stats.QuantileRuns,
#      random splits into 1–8 runs, ±0, empty runs);
#   4. a shake-out of FuzzLivePage past its corpus: a fixed number of
#      schedules, not a wall-clock budget, so a slow box runs as many;
#   5. what a page computes with less, against how it was computed, under
#      the race detector: Table 1's counts off the roster index against a
#      map of the roster, Table 2's carried counts against counts off the
#      log and the rows, Fig. 12's fold-time categories against per-page OUI lookups
#      (and Fig. 20's picks on the same pages against the batch's), the
#      CDF lines' one sort against five Quantile selections, Fig. 16's
#      strconv rows against fmt and its fixed-point appender against
#      strconv's 'f' format, and Fig. 14's merged ascending runs against
#      a stable sort.
check-figures:
	$(GO) test -race ./internal/analysis/ ./internal/figures/
	$(GO) test -race -run 'TestMergeFromMatchesMerge|TestMergeFromRosterHoldsOnlyChanges' ./internal/dataset/
	$(GO) test -race -run 'TestTable1CountsMatchRoster|TestTable2CountsMatchStore|TestTailReadsOnlyNewRegistrations|TestCDFLineMatchesQuantile|TestOversaturatedRowMatchesFmt|TestAppendFixed2MatchesAppendFloat|TestReportSizeIsItsRendering' ./internal/figures/
	$(GO) test -race -run 'TestManufacturerHistogramMatchesLookups|TestUtilizationSeriesMergesRuns|TestCarriedSummariesFollowTheRoster|TestPageOfNoNewRowsShares' ./internal/analysis/
	$(GO) test -race -run 'FuzzLivePage|TestCarriedUsageMatchesBatch|TestPageRecomputesOnlyTouchedHomes|TestPageRecomputesOnlyMovedEntries' ./internal/figures/
	$(GO) test -race -run 'TestVersionsMoveWhenSomethingIsRecorded' ./internal/heartbeat/
	$(GO) test -race -run 'TestExtractReplaysRewrittenSegments' ./internal/segment/
	$(GO) test -run='^$$' -fuzz='^FuzzLivePage$$' -fuzztime=2000x ./internal/figures/
	$(GO) test -race -run 'TestRosterFollowsLatestRegistration' ./internal/dataset/
	$(GO) test -run 'TestSnapshotAllocBudget|TestAvailabilityAllocBudget|TestRenderWorkIsTailBound|TestPageWorkIsIncrementBound|TestLivePageAllocBudget|TestLivePageBytesBudget|TestPageRecomputesOnlyTouchedHomes|TestExhibitLedger' ./internal/figures/
	$(GO) test -run 'TestCaptureAfterSealIsHistoryFree|TestLiveSeriesAllocatesItsSize|TestUsageBeyondTheUS' ./internal/analysis/
	$(GO) test -run 'TestQuantileMatchesSortOracle|TestQuantileAdversarialInputs|TestQuantileRunsZerosAndEmpties|TestSortFloatsMatchesSort|FuzzSortFloats' ./internal/stats/

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
#      flush, tmp leftovers, compaction supersession healing, also for a
#      run in mid-list), size-tiered compaction's policy (rows rewritten
#      once per tier, the flush pass counting tier-0 segments only),
#      the compaction splice (byte-identical to Encode of the joined
#      rows, every decoder check kept, a corrupt input failing the pass
#      with nothing written, an allocation budget of twice the bytes in
#      and out), and the sealed-segment scanner (per-file-decode
#      property at 1 and 4 workers, reads racing Compact/ExtractRouters,
#      a bad segment left out whole);
#   2. the incremental-analysis equivalence suite — partial folds,
#      merges, and the live dashboard against the batch figures;
#   3. the segment-backed verify goldens — the full deployment
#      ingested into segment stores reopened from disk (single-node and
#      3-node cluster), snapshots byte-identical to the golden;
#   4. a short fuzz shake-out of the NPS1 decoder and the splice on top
#      of their checked-in seed corpora.
check-segment:
	$(GO) test -race ./internal/segment/
	$(GO) test -race -run 'TestPartialEquivalence|TestDashboard' ./internal/figures/
	$(GO) test -race -run 'Segment' ./internal/verify/
	$(GO) test -run='^$$' -fuzz='FuzzSegmentDecode' -fuzztime=$(FUZZTIME) ./internal/segment/
	$(GO) test -run='^$$' -fuzz='FuzzSegmentSplice' -fuzztime=$(FUZZTIME) ./internal/segment/

# Replay the checked-in fuzz corpora as plain unit tests (fast, -race).
fuzz-seeds:
	$(GO) test -race -run 'Fuzz' ./internal/dns/ ./internal/pcap/ ./internal/packet/ ./internal/spool/ ./internal/collector/ ./internal/codec/ ./internal/wire/ ./internal/cluster/ ./internal/segment/ ./internal/mac/ ./internal/figures/
