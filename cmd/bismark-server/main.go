// bismark-server runs the central collection server: a UDP sink for
// router heartbeats and an HTTP API for measurement uploads. On SIGINT it
// persists everything it collected as CSV data sets.
//
// Observability: the HTTP listener also serves GET /metrics (Prometheus
// text format), GET /healthz (uptime, heartbeat-port status, row counts),
// and the pprof handlers under /debug/pprof/. Logging is structured
// (slog); tune with NATPEEK_LOG_LEVEL / NATPEEK_LOG_FORMAT.
//
// Cluster mode: -cluster runs this process as one node of a collector
// cluster — the same data plane, plus a control-plane listener for
// membership gossip, write replication journals, and failover replay.
// Point one or more bismark-front processes at the node's -ctrl address
// and clients at the fronts.
//
// Scale-out: add -join to a new cluster node and it starts OFF the
// routing ring, streams its share of ownership from the existing
// members, and only then commits a ring epoch that includes it — fronts
// fence the moving shards during the cutover, so nothing is lost or
// duplicated. Scale-in is driven from a front:
// POST /v1/cluster/drain?node=<id>.
//
// Usage:
//
//	bismark-server -udp 127.0.0.1:8077 -http 127.0.0.1:8080 -out ./live-data
//	bismark-server -cluster -node-id node-0 -ctrl 127.0.0.1:9090 -peers 127.0.0.1:9091,127.0.0.1:9092
//	bismark-server -cluster -join -node-id node-3 -ctrl 127.0.0.1:9093 -peers 127.0.0.1:9090
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"natpeek/internal/cluster"
	"natpeek/internal/collector"
	"natpeek/internal/dataset"
	"natpeek/internal/figures"
	"natpeek/internal/segment"
	"natpeek/internal/telemetry"
)

// mountFigures attaches the incremental figures dashboard to the
// collector's HTTP mux.
func mountFigures(seg *segment.Store, srv *collector.Server) error {
	d, err := figures.NewDashboard(seg, figures.DefaultWindows())
	if err != nil {
		return err
	}
	d.Register(srv.Mux())
	return nil
}

// options is what the flags say about the collector this process runs.
type options struct {
	udp, http string

	failRate    float64
	failSeed    uint64
	traceSample float64
	traceSlow   time.Duration
	noBinary    bool

	cluster      bool
	nodeID, ctrl string
	peers        []string
	join         bool
}

// start brings up the collector the options describe — stand-alone, or
// wrapped in a cluster node that has joined the ring if asked to — and
// configures it the same way in both modes. It returns the collector
// and the node around it (nil stand-alone), which is then what to Close.
func start(o options, store dataset.IngestStore, log *slog.Logger) (*collector.Server, *cluster.Node, error) {
	var srv *collector.Server
	var node *cluster.Node
	var err error
	if o.cluster {
		if o.join && len(o.peers) == 0 {
			return nil, nil, errors.New("-join needs -peers: a joiner pulls ownership from existing members")
		}
		node, err = cluster.NewNode(cluster.NodeConfig{
			ID:      o.nodeID,
			UDPAddr: o.udp, HTTPAddr: o.http, CtrlAddr: o.ctrl,
			Peers: o.peers, Store: store,
			Joining: o.join,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("cluster node start: %w", err)
		}
		if o.join {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
			err := node.JoinRing(ctx)
			cancel()
			if err != nil {
				node.Close()
				return nil, nil, fmt.Errorf("ring join: %w", err)
			}
			log.Info("joined the routing ring", "node", o.nodeID)
		}
		srv = node.Collector()
	} else if srv, err = collector.NewServer(o.udp, o.http, store); err != nil {
		return nil, nil, fmt.Errorf("start: %w", err)
	}
	if o.failRate > 0 {
		srv.SetFaultInjection(o.failRate, o.failSeed)
		log.Warn("fault injection enabled", "rate", o.failRate, "seed", o.failSeed)
	}
	srv.SetTraceSampling(o.traceSample, o.traceSlow)
	if o.noBinary {
		srv.SetAdvertiseBinary(false)
		log.Info("binary batch advertisement disabled")
	}
	return srv, node, nil
}

func main() {
	var o options
	flag.StringVar(&o.udp, "udp", "127.0.0.1:8077", "UDP address for heartbeats")
	flag.StringVar(&o.http, "http", "127.0.0.1:8080", "HTTP address for measurement uploads, /metrics, /healthz, and pprof")
	out := flag.String("out", "live-data", "directory to persist data sets on shutdown")
	statsEvery := flag.Duration("stats-every", 30*time.Second, "how often to log collection progress (stand-alone mode)")
	flag.Float64Var(&o.failRate, "fail-rate", 0, "fault injection: fraction of uploads to fail (half rejected, half applied with the ack dropped) to exercise gateway retries and server dedupe")
	flag.Uint64Var(&o.failSeed, "fail-seed", 1, "fault injection RNG seed")
	flag.Float64Var(&o.traceSample, "trace-sample", 0.05, "tail-sampling keep probability for healthy traces (error, throttled, and slow traces are always kept)")
	flag.DurationVar(&o.traceSlow, "trace-slow", 500*time.Millisecond, "traces at least this slow are always kept")
	flag.BoolVar(&o.noBinary, "no-binary", false, "stop advertising the NPB1 binary batch encoding (clients fall back to JSON; binary uploads are still accepted)")
	flag.BoolVar(&o.cluster, "cluster", false, "run as a cluster node: serve the control plane on -ctrl, gossip with -peers, journal replicated writes, and replay them on peer failure")
	flag.StringVar(&o.nodeID, "node-id", "node-0", "cluster mode: this node's stable hash-ring identity")
	flag.StringVar(&o.ctrl, "ctrl", "127.0.0.1:9090", "cluster mode: control-plane HTTP address (gossip, replicate, manifest)")
	peers := flag.String("peers", "", "cluster mode: comma-separated control-plane addresses of existing members (empty for the first node)")
	flag.BoolVar(&o.join, "join", false, "cluster mode: scale-out — start off the routing ring, pull this node's share of ownership from the existing members, then commit a ring epoch that includes it (requires -peers)")
	segDir := flag.String("segments", "", "durable columnar segment directory: rows spill from memory to immutable NPS1 segments as they arrive (crash-safe, exactly-once across restarts) and the HTTP listener gains a continuously-updating GET /figures dashboard")
	segFlushAge := flag.Duration("segment-flush-age", time.Minute, "seal a non-empty memtable this long after its first row even below the row threshold, so quiet deployments still reach disk (0 disables)")
	flag.Parse()
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			o.peers = append(o.peers, p)
		}
	}

	log := telemetry.SetupLogger("bismark-server")

	var store dataset.IngestStore = dataset.NewSharded(0)
	var segStore *segment.Store
	if *segDir != "" {
		var err error
		segStore, err = segment.Open(segment.Options{Dir: *segDir, FlushAge: *segFlushAge})
		if err != nil {
			log.Error("segment store open failed", "err", err)
			os.Exit(1)
		}
		store = segStore
		log.Info("segment storage enabled", "dir", *segDir,
			"segments", len(segStore.Segments()))
	}

	srv, node, err := start(o, store, log)
	if err != nil {
		log.Error(err.Error())
		os.Exit(1)
	}
	if segStore != nil {
		if err := mountFigures(segStore, srv); err != nil {
			log.Error("figures dashboard failed", "err", err)
			os.Exit(1)
		}
		log.Info("figures dashboard", "url", "http://"+srv.HTTPAddr()+"/figures")
	}
	listening := []any{
		"heartbeats", "udp://" + srv.UDPAddr(),
		"uploads", "http://" + srv.HTTPAddr(),
		"metrics", "http://" + srv.HTTPAddr() + "/metrics",
		"healthz", "http://" + srv.HTTPAddr() + "/healthz",
		"traces", "http://" + srv.HTTPAddr() + "/debug/traces",
		"pipeline", "http://" + srv.HTTPAddr() + "/pipeline",
		"pprof", "http://" + srv.HTTPAddr() + "/debug/pprof/"}
	// Collection progress is a stand-alone server's log line; a cluster
	// node's rows are a shard, reported cluster-wide by the front.
	var progress <-chan time.Time
	closeServer := srv.Close
	if node != nil {
		closeServer = node.Close
		listening = append(listening, "node", o.nodeID,
			"control", "http://"+node.CtrlAddr(),
			"members", "http://"+node.CtrlAddr()+"/cluster/members")
	} else {
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		progress = ticker.C
	}
	log.Info("listening", listening...)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-progress:
			beats := 0
			hb := store.HeartbeatLog()
			for _, id := range hb.Routers() {
				beats += hb.Count(id)
			}
			rc := store.RowCounts()
			log.Info("collection progress",
				"routers", rc.Routers, "heartbeats", beats,
				"uptime", rc.Uptime, "capacity", rc.Capacity,
				"counts", rc.Counts, "wifi", rc.WiFi,
				"flows", rc.Flows)
		case <-stop:
			log.Info("shutting down", "out", *out)
			if err := closeServer(); err != nil {
				log.Warn("close", "err", err)
			}
			if segStore != nil {
				if err := segStore.Close(); err != nil {
					log.Warn("segment store close", "err", err)
				}
			}
			if err := store.Save(*out); err != nil {
				log.Error("save failed", "err", err)
				os.Exit(1)
			}
			return
		}
	}
}
