package main

import (
	"runtime"
	"time"

	"natpeek/internal/cluster"
	"natpeek/internal/dataset"
)

// Frozen benchmark parameters. Both sides of any comparison run the same
// values; changing one is a change to the benchmark, not to the system.
const (
	// flushRows is segment.Options.FlushRows for every store natbench
	// opens: small enough that a run crosses many flushes and, on the
	// ingest workloads, several compactions.
	flushRows = 16384

	clusterNodes       = 3
	clusterReplication = 2

	// Open-loop offered rates in rows/s, frozen at the seed commit
	// (d9422d3) on the 2-core reference box: about a third of the
	// cluster's closed-loop saturation rate and a fifth of the single
	// collector's. At half of saturation the single collector's flusher
	// is busy most of the time and ack latency is a coin toss from run
	// to run; these rates sit where the same code repeats.
	openRateCluster = 40_000
	openRateSingle  = 48_000
	// figures-live ingests a trickle: the dashboard re-derives every
	// exhibit from the whole history on each GET, so the rate is set
	// for history to grow by about two fifths over a run (a page then
	// costs much the same from first to last), not to load ingest.
	openRateFigures = 2_000

	// An ingest run is this many rounds of an open-loop window and a
	// closed-loop burst (see ingest.run).
	rounds = 8
	// The closed loop is a fixed amount of work, not a fixed time: over
	// the rounds it sends a share of the run's seconds' worth of rows at
	// these rates — the seed commit's saturation rates — however long
	// that takes. The single collector gets the smaller share: its store
	// is one, not three, and every flush and compaction costs more the
	// more rows it already holds.
	closedRateCluster  = 110_000
	closedRateSingle   = 230_000
	closedShareCluster = 0.5
	closedShareSingle  = 0.3

	// Latency limits behind op_ontime_share, per workload's operation:
	// a batch ack, a GET /figures, and a cold open→fold→render. Each sits
	// well clear of the bulk of its distribution, so the share reads the
	// tail and does not flip with the machine's speed.
	ackLimitMs     = 25.0
	refreshLimitMs = 400.0
	coldLimitMs    = 700.0

	// ingest-single traffic shape.
	directShare    = 0.10 // uploads sent as keyed JSON /v1/* POSTs
	redeliverShare = 0.05 // batches sent a second time (dedupe path)

	// figures-live: the pause between freshness markers.
	markerEvery = 300 * time.Millisecond

	// scan-cold: how many sealed segments the study is written as.
	studySegments = 16

	// An open-loop phase whose sleeping clients woke later than this at
	// p95 is invalid: the latencies then measure natbench. figures-live
	// gets a scheduler tick more: its reader and the render keep both Ps
	// busy, and Go then notices a due timer up to 10 ms late.
	lateLimitMs        = 5.0
	lateLimitFiguresMs = 20.0

	// A run during which the hypervisor kept more than this share of the
	// CPUs' time for other guests is invalid: its timings, scaled or not,
	// say more about the neighbours than about the program.
	stolenLimit = 0.05

	// rss_mb is the median of the resident set read this often.
	rssEvery = 50 * time.Millisecond
	// The speed kernel runs this often beside the workload, and takes
	// speedRefMs on the reference box in its usual state: a run whose
	// kernel reads that reports its timings unscaled.
	speedEvery = 100 * time.Millisecond
	speedRefMs = 3.0
)

// sizes are the knobs that scale a run. fullSizes is the benchmark; the
// smoke test runs the same code at about a fiftieth of it.
type sizes struct {
	timed        time.Duration // length of the timed region
	setupRepeats int           // set-up runs this often; setup_s is the median

	warmupBatches int
	preloadRows   int // figures-live: rows sealed before the live phase

	// scan-cold study: world.Config scale and consenting homes, and the
	// fixed shape every seed's study is cut to (see trimStudy).
	studyScale        float64
	studyTrafficHomes int
	studyShape        dataset.RowCounts

	probeBatches     int           // ≈310 rows each, replayed through every layer
	probePosts       int           // batches per timed HTTP series
	probeIngestPhase time.Duration // each phase of the probe's short ingest
	probeBeats       int           // heartbeats paced over UDP
}

func fullSizes(seconds int) sizes {
	return sizes{
		timed: time.Duration(seconds) * time.Second, setupRepeats: 7,
		warmupBatches: 96, preloadRows: 65_536,
		studyScale: 0.4, studyTrafficHomes: 10,
		studyShape: dataset.RowCounts{Uptime: 3600, Capacity: 1250, Counts: 44000,
			Sightings: 170000, WiFi: 108000, Flows: 52000, Throughput: 310000},
		probeBatches: 640, probePosts: 200, probeIngestPhase: 1500 * time.Millisecond, probeBeats: 20_000,
	}
}

func smokeSizes() sizes {
	return sizes{
		timed: 400 * time.Millisecond, setupRepeats: 1,
		warmupBatches: 8, preloadRows: 4096,
		studyScale: 0.05, studyTrafficHomes: 1,
		studyShape: dataset.RowCounts{Uptime: 200, Capacity: 60, Counts: 2000,
			Sightings: 6000, WiFi: 5000, Flows: 2000, Throughput: 12000},
		probeBatches: 64, probePosts: 16, probeIngestPhase: 150 * time.Millisecond, probeBeats: 500,
	}
}

// gossip is the cluster timing natbench uses: quick enough that bring-up
// is not the set-up time, with failure detection slow enough that a busy
// 2-core box never declares a live node dead mid-run.
var gossip = cluster.GossipConfig{
	Interval:     50 * time.Millisecond,
	SuspectAfter: 5 * time.Second,
	DeadAfter:    30 * time.Second,
}

// clients is the load shape: one driver process, at most two client
// goroutines/connections, fewer on a single-core box.
func clients() int { return min(runtime.NumCPU(), 2) }
