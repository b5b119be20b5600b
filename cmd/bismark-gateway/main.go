// bismark-gateway runs one BISmark router agent against a real
// collection server over real sockets (UDP heartbeats + HTTP uploads).
// The home behind the gateway is a synthetic household driven in
// accelerated time: the agent's measurement schedule, anonymization, and
// upload path are the real ones; only the house is simulated.
//
// Usage (with bismark-server running):
//
//	bismark-gateway -id bismark-US-900 -country US \
//	    -server-udp 127.0.0.1:8077 -server-http 127.0.0.1:8080 \
//	    -speedup 720 -duration 30s
//
// At -speedup 720 every wall-clock second advances the home by 12
// simulated minutes, so a 30 s demo covers ~6 home-days.
package main

import (
	"context"
	"flag"
	"net/http"
	"net/netip"
	"os"
	"time"

	"natpeek/internal/clock"
	"natpeek/internal/collector"
	"natpeek/internal/eventsim"
	"natpeek/internal/gateway"
	"natpeek/internal/geo"
	"natpeek/internal/household"
	"natpeek/internal/linksim"
	"natpeek/internal/mac"
	"natpeek/internal/rng"
	"natpeek/internal/spool"
	"natpeek/internal/telemetry"
	"natpeek/internal/trace"
	"natpeek/internal/webui"
	"natpeek/internal/wifi"
)

func main() {
	id := flag.String("id", "bismark-US-900", "router identifier")
	country := flag.String("country", "US", "deployment country code")
	udp := flag.String("server-udp", "127.0.0.1:8077", "collection server heartbeat address")
	httpAddr := flag.String("server-http", "127.0.0.1:8080", "collection server upload address")
	speedup := flag.Float64("speedup", 720, "simulated seconds per wall second")
	duration := flag.Duration("duration", 30*time.Second, "wall-clock run time")
	seed := flag.Uint64("seed", 42, "household seed")
	debugAddr := flag.String("debug-addr", "", "optional listen address for /metrics and pprof (e.g. 127.0.0.1:9090)")
	spoolDir := flag.String("spool-dir", "", "optional directory for the upload spool journal (uploads survive a gateway restart, like the firmware's flash buffers)")
	flag.Parse()

	log := telemetry.SetupLogger("bismark-gateway")

	cty, ok := geo.Lookup(*country)
	if !ok {
		log.Error("unknown country", "country", *country)
		os.Exit(1)
	}
	cli, err := collector.NewClient(*id, *country, *udp, *httpAddr,
		collector.WithSpool(spool.Config{Dir: *spoolDir}))
	if err != nil {
		log.Error("connect failed", "err", err)
		os.Exit(1)
	}
	defer cli.Close()

	if *debugAddr != "" {
		// The debug listener carries the gateway-side ops view: the
		// client's flight recorder (each payload's trace up to the server
		// ack) and a pipeline page fed by the spool's health sampler.
		dbg, err := telemetry.StartDebugWith(*debugAddr, nil, func(mux *http.ServeMux) {
			trace.RegisterDebug(mux, cli.TraceRecorder())
			clientSnap := webui.PipelineFromTelemetry(nil, cli.TraceRecorder(), nil)
			webui.RegisterPipeline(mux, webui.PipelineConfig{
				Title: *id,
				Snapshot: func() webui.PipelineSnapshot {
					s := clientSnap()
					for _, h := range cli.SpoolHealth() {
						s.SpoolDepth += float64(h.Depth)
					}
					return s
				},
			})
		})
		if err != nil {
			log.Error("debug listener failed", "err", err)
			os.Exit(1)
		}
		defer dbg.Close()
		log.Info("debug listener up", "metrics", "http://"+dbg.Addr()+"/metrics",
			"traces", "http://"+dbg.Addr()+"/debug/traces",
			"pipeline", "http://"+dbg.Addr()+"/pipeline",
			"pprof", "http://"+dbg.Addr()+"/debug/pprof/")
	}

	// Build the synthetic home.
	home := household.Generate(cty, 900, rng.New(*seed))
	start := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	clk := clock.NewSim(start)
	sched := eventsim.New(clk, rng.New(*seed+1))

	neigh := wifi.NewEnvironment()
	for i := 0; i < home.NeighborAPs24; i++ {
		neigh.AddAP(wifi.AP{BSSID: mac.FromOUI(0x0018F8, uint32(i)), Band: wifi.Band24, Channel: 11, RSSI: -60})
	}
	env := &gateway.Env{
		Link: linksim.NewLink(clk, rng.New(*seed+2),
			linksim.Config{RateBps: home.UpBps, BufferBytes: home.BufferUpBytes},
			linksim.Config{RateBps: home.DownBps, BufferBytes: 1 << 20}),
		Radio24: wifi.NewRadio(wifi.Band24, neigh, rng.New(*seed+3)),
		Radio5:  wifi.NewRadio(wifi.Band5, neigh, rng.New(*seed+4)),
	}
	agent := gateway.New(gateway.Config{
		ID:        *id,
		LANPrefix: netip.MustParsePrefix("192.168.1.0/24"),
		AnonKey:   []byte("live-demo"),
	}, cli, env)

	// Associate the home's devices on a rotating schedule.
	sched.Every(time.Hour, 0, func(now time.Time) {
		for _, d := range home.Devices {
			env.SetAttached(d.HW, d.Conn, home.DeviceOnline(d, now))
		}
	})

	agent.PowerOn(sched)
	log.Info("agent up", "id", *id, "devices", len(home.Devices),
		"up_mbps", home.UpBps/1e6, "down_mbps", home.DownBps/1e6, "server", *udp)

	// Drive simulated time at the requested speedup.
	wallStart := time.Now()
	tick := 100 * time.Millisecond
	for time.Since(wallStart) < *duration {
		time.Sleep(tick)
		clk.Advance(time.Duration(float64(tick) * *speedup))
	}
	agent.PowerOff(clk.Now())
	// Drain the upload spool before exiting; anything still queued after
	// the deadline survives in the journal (if -spool-dir is set).
	flushCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := cli.Flush(flushCtx); err != nil {
		log.Warn("spool not fully drained", "queued", cli.SpoolDepth(), "err", err)
	}
	cancel()
	if err := cli.Err(); err != nil {
		log.Warn("some uploads failed (retried by the spool)", "last_err", err)
	}
	simSpan := clk.Now().Sub(start)
	log.Info("done", "simulated", simSpan.Round(time.Minute).String(),
		"wall", time.Since(wallStart).Round(time.Second).String())
}
