// bismark-server runs the central collection server: a UDP sink for
// router heartbeats and an HTTP API for measurement uploads. Rows land in
// a durable columnar segment store (-segments, default <out>/segments)
// that a restart reloads; on SIGINT the server also writes every data
// set as CSV into -out, so far the only place heartbeats persist.
//
// Observability: the HTTP listener also serves GET /metrics (Prometheus
// text format), GET /healthz (uptime, heartbeat-port status, row counts),
// the live GET /figures dashboard, and the pprof handlers under
// /debug/pprof/. Logging is structured (slog); tune with
// NATPEEK_LOG_LEVEL / NATPEEK_LOG_FORMAT.
//
// Cluster mode: -cluster runs this process as one node of a collector
// cluster — the same data plane, plus a control-plane listener for
// membership gossip, write replication journals, and failover replay.
// Point one or more bismark-front processes at the node's -ctrl address
// and clients at the fronts. Every node needs a -out (or -segments)
// directory of its own, empty each time it starts (peers replay its past).
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
//	bismark-server -cluster -node-id node-0 -ctrl 127.0.0.1:9090 -peers 127.0.0.1:9091,127.0.0.1:9092 -out ./node-0
//	bismark-server -cluster -join -node-id node-3 -ctrl 127.0.0.1:9093 -peers 127.0.0.1:9090 -out ./node-3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"natpeek/internal/cluster"
	"natpeek/internal/collector"
	"natpeek/internal/figures"
	"natpeek/internal/segment"
	"natpeek/internal/telemetry"
)

// options is what the flags say about the collector this process runs
// and the store it ingests into.
type options struct {
	udp, http string

	out, segments        string
	flushAge, statsEvery time.Duration

	failRate    float64
	failSeed    uint64
	traceSample float64
	traceSlow   time.Duration

	cluster      bool
	nodeID, ctrl string
	peers        []string
	join         bool
}

// parseOptions reads the command line, exiting on a bad one. -segments
// left empty is <out>/segments.
func parseOptions(args []string) options {
	var o options
	fs := flag.NewFlagSet("bismark-server", flag.ExitOnError)
	fs.StringVar(&o.udp, "udp", "127.0.0.1:8077", "UDP address for heartbeats")
	fs.StringVar(&o.http, "http", "127.0.0.1:8080", "HTTP address for measurement uploads, /metrics, /healthz, /figures, and pprof")
	fs.StringVar(&o.out, "out", "live-data", "data directory: holds the segment store (unless -segments moves it) and receives the CSV data sets on shutdown")
	fs.DurationVar(&o.statsEvery, "stats-every", 30*time.Second, "how often to log collection progress (stand-alone mode)")
	fs.Float64Var(&o.failRate, "fail-rate", 0, "fault injection: fraction of uploads to fail (half rejected, half applied with the ack dropped) to exercise gateway retries and server dedupe")
	fs.Uint64Var(&o.failSeed, "fail-seed", 1, "fault injection RNG seed")
	fs.Float64Var(&o.traceSample, "trace-sample", 0.05, "tail-sampling keep probability for healthy traces (error, throttled, and slow traces are always kept)")
	fs.DurationVar(&o.traceSlow, "trace-slow", 500*time.Millisecond, "traces at least this slow are always kept")
	fs.BoolVar(&o.cluster, "cluster", false, "run as a cluster node: serve the control plane on -ctrl, gossip with -peers, journal replicated writes, and replay them on peer failure")
	fs.StringVar(&o.nodeID, "node-id", "node-0", "cluster mode: this node's stable hash-ring identity")
	fs.StringVar(&o.ctrl, "ctrl", "127.0.0.1:9090", "cluster mode: control-plane HTTP address (gossip, replicate, manifest)")
	peers := fs.String("peers", "", "cluster mode: comma-separated control-plane addresses of existing members (empty for the first node)")
	fs.BoolVar(&o.join, "join", false, "cluster mode: scale-out — start off the routing ring, pull this node's share of ownership from the existing members, then commit a ring epoch that includes it (requires -peers)")
	fs.StringVar(&o.segments, "segments", "", "durable columnar segment directory (default <out>/segments): rows spill from memory to immutable NPS1 segments as they arrive (crash-safe, exactly-once across restarts) and feed the GET /figures dashboard; one directory per process, locked while open, and empty when a -cluster node starts")
	fs.DurationVar(&o.flushAge, "segment-flush-age", time.Minute, "seal a non-empty memtable this long after its first row even below the row threshold, so quiet deployments still reach disk (0 disables)")
	fs.Parse(args)
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			o.peers = append(o.peers, p)
		}
	}
	if o.segments == "" {
		o.segments = filepath.Join(o.out, "segments")
	}
	return o
}

// openStore opens the segment store the server ingests into.
func openStore(o options) (*segment.Store, error) {
	return segment.Open(segment.Options{Dir: o.segments, FlushAge: o.flushAge})
}

// start brings up the collector the options describe over store —
// stand-alone, or wrapped in a cluster node that has joined the ring if
// asked to — and configures it the same way in both modes, the figures
// dashboard mounted. It returns the collector and the node around it
// (nil stand-alone), which is then what to Close before the store. A
// cluster node starts only on an empty store: peers replay a reborn
// node's earlier life, so rows it reloaded would be held twice.
func start(o options, store *segment.Store, log *slog.Logger) (srv *collector.Server, node *cluster.Node, err error) {
	if n := len(store.Segments()); o.cluster && n > 0 {
		return nil, nil, fmt.Errorf("cluster node: %s already holds %d segments from an earlier life, which peers replay on restart; point -segments (or -out) at an empty directory", o.segments, n)
	}
	d, err := figures.NewDashboard(store, figures.DefaultWindows())
	if err != nil {
		return nil, nil, fmt.Errorf("figures dashboard: %w", err)
	}
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
	d.Register(srv.Mux())
	return srv, node, nil
}

func main() {
	o := parseOptions(os.Args[1:])
	log := telemetry.SetupLogger("bismark-server")

	store, err := openStore(o)
	if err != nil {
		log.Error("segment store open failed", "err", err)
		os.Exit(1)
	}
	log.Info("segment store", "dir", o.segments, "segments", len(store.Segments()))
	srv, node, err := start(o, store, log)
	if err != nil {
		log.Error(err.Error())
		os.Exit(1)
	}
	listening := []any{
		"heartbeats", "udp://" + srv.UDPAddr(),
		"uploads", "http://" + srv.HTTPAddr(),
		"figures", "http://" + srv.HTTPAddr() + "/figures",
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
		ticker := time.NewTicker(o.statsEvery)
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
			log.Info("shutting down", "out", o.out)
			if err := closeServer(); err != nil {
				log.Warn("close", "err", err)
			}
			if err := store.Close(); err != nil {
				log.Warn("segment store close", "err", err)
			}
			if err := store.Merge().Save(o.out); err != nil {
				log.Error("save failed", "err", err)
				os.Exit(1)
			}
			return
		}
	}
}
