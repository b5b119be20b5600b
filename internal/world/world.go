// Package world builds and runs the synthetic deployment that stands in
// for the paper's 126 homes in 19 countries. It generates household
// profiles from the Table 1 roster, then fills a dataset.Store with the
// six Table 2 data sets over their original collection windows:
//
//   - Heartbeats and Uptime come from each home's power/ISP availability
//     model (run-length-encoded minute heartbeats);
//   - Devices and WiFi rows are produced by a real gateway.Agent per
//     home, driven over the census/scan schedule against simulated
//     radios and device presence — the same code path as a live router;
//   - Capacity rows come from real ShaperProbe runs through each home's
//     simulated access link (token bucket, bufferbloat and all);
//   - Traffic rows come from the statistical flow generator for the
//     consenting-home subset (25 US homes in the paper), anonymized with
//     the same policy the live capture uses.
//
// Everything is deterministic from Config.Seed.
package world

import (
	"fmt"
	"math"
	"net/netip"
	"time"

	"natpeek/internal/clock"
	"natpeek/internal/dataset"
	"natpeek/internal/gateway"
	"natpeek/internal/geo"
	"natpeek/internal/heartbeat"
	"natpeek/internal/household"
	"natpeek/internal/linksim"
	"natpeek/internal/mac"
	"natpeek/internal/rng"
	"natpeek/internal/shaperprobe"
	"natpeek/internal/telemetry"
	"natpeek/internal/trafficgen"
	"natpeek/internal/wifi"
)

// Config controls a deployment build.
type Config struct {
	// Seed drives every random draw.
	Seed uint64

	// Scale multiplies each country's router count (1.0 = the paper's
	// 126 routers). Tests use smaller scales. Each country keeps ≥1
	// router so the per-country analyses stay meaningful.
	Scale float64

	// TrafficHomes is the number of consenting US homes (paper: 25).
	TrafficHomes int

	// GlobalTraffic implements the §7 extension ("expanding the study of
	// usage to more countries"): up to two homes per non-US country also
	// consent to Traffic collection.
	GlobalTraffic bool

	// Countries, when non-empty, restricts the deployment to these
	// country codes. The verify harness uses it to build small worlds
	// without dragging in one router from each of the 19 countries.
	Countries []string

	// RoutersPerCountry, when positive, fixes the router count per
	// country instead of scaling the Table 1 roster.
	RoutersPerCountry int

	// FrameTraffic routes the Traffic data set of consenting homes
	// through the real capture pipeline: flows are rendered to raw
	// Ethernet frames (DNS lookup, TCP handshake, data, FIN) and fed to
	// the agent's passive monitor, which rebuilds flow records and
	// throughput from the wire. Slower than the statistical fast path;
	// the verify harness uses it because it exercises — and byte-accounts
	// — the same code a live router runs.
	FrameTraffic bool

	// Windows; zero values default to the Table 2 windows.
	HeartbeatsFrom, HeartbeatsTo time.Time
	UptimeFrom, UptimeTo         time.Time
	WiFiFrom, WiFiTo             time.Time
	CapacityFrom, CapacityTo     time.Time
	TrafficFrom, TrafficTo       time.Time

	// ProbeTrainLength for capacity measurement (default 60).
	ProbeTrainLength int
}

func (c *Config) fill() {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.TrafficHomes <= 0 {
		c.TrafficHomes = 25
	}
	def := func(t *time.Time, v time.Time) {
		if t.IsZero() {
			*t = v
		}
	}
	def(&c.HeartbeatsFrom, dataset.HeartbeatsFrom)
	def(&c.HeartbeatsTo, dataset.HeartbeatsTo)
	def(&c.UptimeFrom, dataset.UptimeFrom)
	def(&c.UptimeTo, dataset.UptimeTo)
	def(&c.WiFiFrom, dataset.WiFiFrom)
	def(&c.WiFiTo, dataset.WiFiTo)
	def(&c.CapacityFrom, dataset.CapacityFrom)
	def(&c.CapacityTo, dataset.CapacityTo)
	def(&c.TrafficFrom, dataset.TrafficFrom)
	def(&c.TrafficTo, dataset.TrafficTo)
	if c.ProbeTrainLength <= 0 {
		c.ProbeTrainLength = 60
	}
}

// Home is one deployed household.
type Home struct {
	Profile *household.Profile
	Consent bool
}

// Accounting tallies what the world generated, alongside what its
// agents exported — the "what went in" side of the verify harness's
// conservation invariants (the collector's store is "what came out").
type Accounting struct {
	Homes            int64
	HeartbeatBeats   int64 // minute beats generated from availability models
	UptimeReports    int64 // 12-hourly reports scheduled while powered
	CapacityMeasures int64 // ShaperProbe runs executed by the world

	// Statistical fast-path traffic (FrameTraffic off).
	GenFlows     int64
	GenUpBytes   int64
	GenDownBytes int64

	// Frame-mode traffic (FrameTraffic on): raw frames fed to monitors,
	// and the oracle's expectations for what capture must rebuild.
	Frames              int64
	FrameUpBytes        int64
	FrameDownBytes      int64
	ExpectedFlowRecords int64 // flow-expiry simulation, must equal exported records
	DNSDistinctRemotes  int64 // distinct server addrs answered over DNS
	DNSCacheEntries     int64 // what the monitors' sniffers actually learned

	// Export is the merged gateway-side accounting across all agents.
	Export gateway.ExportStats
}

// World is a built deployment.
type World struct {
	Cfg   Config
	Homes []*Home
	Store *dataset.Store
	Acct  Accounting

	root *rng.Stream
}

// Build generates the deployment roster.
func Build(cfg Config) *World {
	cfg.fill()
	w := &World{Cfg: cfg, Store: dataset.NewStore(), root: rng.New(cfg.Seed)}
	consentLeft := cfg.TrafficHomes
	keep := make(map[string]bool, len(cfg.Countries))
	for _, cc := range cfg.Countries {
		keep[cc] = true
	}
	for _, c := range geo.All() {
		if len(keep) > 0 && !keep[c.Code] {
			continue
		}
		n := cfg.RoutersPerCountry
		if n <= 0 {
			n = int(math.Round(float64(c.Routers) * cfg.Scale))
		}
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			p := household.Generate(c, i, w.root)
			h := &Home{Profile: p}
			// Consent concentrates in the US, as in the study ("we were
			// only able to collect passive traffic traces from 25 homes
			// in the United States").
			if c.Code == "US" && consentLeft > 0 {
				h.Consent = true
				consentLeft--
			}
			if cfg.GlobalTraffic && c.Code != "US" && i < 2 {
				h.Consent = true
			}
			w.Homes = append(w.Homes, h)
			w.Store.RouterCountry[p.ID] = c.Code
		}
	}
	// The paper's Traffic subset contained two homes that continuously
	// saturate their uplink (Fig. 16); pin that phenomenon into the
	// consenting subset so the case study always has subjects.
	consenting := w.ConsentingHomes()
	if n := len(consenting); n >= 2 {
		consenting[n/3].Profile.UplinkSaturator = true
		consenting[2*n/3].Profile.UplinkSaturator = true
	}
	return w
}

// Run fills the store with every data set. It is deterministic. Progress
// is visible on a telemetry debug listener while a large run executes:
// natpeek_sim_homes_done_total counts finished homes against the
// natpeek_sim_homes gauge, and the eventsim counters track task firings
// and simulated time inside the current home.
func (w *World) Run() error { return w.RunWith(nil) }

// RunWith runs the deployment with a caller-chosen sink per home.
// sinkFor returns the sink for one home plus an optional close func
// invoked after that home's windows finish (flush + teardown); a nil
// sinkFor (or a nil returned sink) falls back to writing the world's
// own Store directly. The verify harness passes collector clients here,
// so every row travels the agent→spool→HTTP→collector path instead.
func (w *World) RunWith(sinkFor func(h *Home) (gateway.Sink, func() error, error)) error {
	done := telemetry.Default.Counter("natpeek_sim_homes_done_total",
		"Homes whose full collection windows have been simulated.")
	telemetry.Default.Gauge("natpeek_sim_homes",
		"Homes in the deployment being simulated.").Set(float64(len(w.Homes)))
	for _, h := range w.Homes {
		sink := gateway.Sink(nil)
		var closeSink func() error
		if sinkFor != nil {
			s, cl, err := sinkFor(h)
			if err != nil {
				return fmt.Errorf("world: %s: sink: %w", h.Profile.ID, err)
			}
			sink, closeSink = s, cl
		}
		if sink == nil {
			sink = &storeSink{w.Store}
		}
		err := w.runHome(h, sink)
		if closeSink != nil {
			if cerr := closeSink(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("world: %s: %w", h.Profile.ID, err)
		}
		done.Inc()
	}
	return nil
}

// HeartbeatRunSink is an optional sink capability: accept a whole
// run-length-encoded heartbeat run in one call. Sinks without it get
// one Heartbeat call per minute beat, which is equivalent but slow for
// month-long windows.
type HeartbeatRunSink interface {
	HeartbeatRun(id string, r heartbeat.Run)
}

// storeSink adapts the dataset store to gateway.Sink.
type storeSink struct{ st *dataset.Store }

func (s *storeSink) Heartbeat(id string, at time.Time) { s.st.Heartbeats.Record(id, at) }
func (s *storeSink) UptimeReport(r dataset.UptimeReport) {
	s.st.Uptime = append(s.st.Uptime, r)
}
func (s *storeSink) CapacityMeasure(c dataset.CapacityMeasure) {
	s.st.Capacity = append(s.st.Capacity, c)
}
func (s *storeSink) DeviceCensus(c dataset.DeviceCount, sg []dataset.DeviceSighting) {
	s.st.Counts = append(s.st.Counts, c)
	s.st.Sightings = append(s.st.Sightings, sg...)
}
func (s *storeSink) WiFiScan(scans []dataset.WiFiScan) { s.st.WiFi = append(s.st.WiFi, scans...) }
func (s *storeSink) TrafficFlows(f []dataset.FlowRecord) {
	s.st.Flows = append(s.st.Flows, f...)
}
func (s *storeSink) TrafficThroughput(ts []dataset.ThroughputSample) {
	s.st.Throughput = append(s.st.Throughput, ts...)
}

func (s *storeSink) HeartbeatRun(id string, r heartbeat.Run) { s.st.Heartbeats.RecordRun(id, r) }

func (w *World) runHome(h *Home, sink gateway.Sink) error {
	p := h.Profile

	// Agent wired to simulated radios; its anonymization policy is the
	// one used for every exported identifier of this study period.
	env := w.buildEnv(p)
	agent := gateway.New(gateway.Config{
		ID:             p.ID,
		LANPrefix:      netip.MustParsePrefix("192.168.1.0/24"),
		AnonKey:        []byte("natpeek-study-2013"),
		TrafficConsent: h.Consent,
	}, sink, env)

	w.emitHeartbeats(p, sink)
	w.emitUptime(p, agent)
	w.emitDeviceCensus(p, agent, env)
	w.emitWiFiScans(p, agent, env)
	w.emitCapacity(p, sink)
	if h.Consent {
		if w.Cfg.FrameTraffic {
			w.emitTrafficFrames(p, agent)
		} else {
			w.emitTraffic(p, agent, sink)
		}
	}
	w.Acct.Homes++
	w.Acct.DNSCacheEntries += int64(agent.Monitor().DNSCacheLen())
	w.Acct.Export.Add(agent.ExportStats())
	return nil
}

func (w *World) buildEnv(p *household.Profile) *gateway.Env {
	neigh := wifi.NewEnvironment()
	nr := p.Rand().Child("neigh-aps")
	for i := 0; i < p.NeighborAPs24; i++ {
		neigh.AddAP(wifi.AP{
			BSSID: mac.FromOUI(0x0018F8, uint32(nr.Uint64()&0xffffff)),
			SSID:  fmt.Sprintf("neighbor-%d", i), Band: wifi.Band24, Channel: 11,
			RSSI: -45 - nr.Intn(40),
		})
	}
	for i := 0; i < p.NeighborAPs5; i++ {
		neigh.AddAP(wifi.AP{
			BSSID: mac.FromOUI(0x001B11, uint32(nr.Uint64()&0xffffff)),
			SSID:  fmt.Sprintf("neighbor5-%d", i), Band: wifi.Band5, Channel: 36,
			RSSI: -50 - nr.Intn(35),
		})
	}
	return &gateway.Env{
		Radio24: wifi.NewRadio(wifi.Band24, neigh, p.Rand().Child("radio24")),
		Radio5:  wifi.NewRadio(wifi.Band5, neigh, p.Rand().Child("radio5")),
	}
}

// emitHeartbeats converts the home's online intervals into minute-cadence
// heartbeat runs.
func (w *World) emitHeartbeats(p *household.Profile, sink gateway.Sink) {
	online := p.OnlineIntervals(w.Cfg.HeartbeatsFrom, w.Cfg.HeartbeatsTo)
	hrs, _ := sink.(HeartbeatRunSink)
	for _, iv := range online {
		n := int(iv.Duration() / heartbeat.Interval)
		if n < 1 {
			n = 1
		}
		run := heartbeat.Run{Start: iv.Start, Interval: heartbeat.Interval, Count: n}
		if hrs != nil {
			hrs.HeartbeatRun(p.ID, run)
		} else {
			for i := 0; i < n; i++ {
				sink.Heartbeat(p.ID, run.Start.Add(time.Duration(i)*run.Interval))
			}
		}
		w.Acct.HeartbeatBeats += int64(n)
	}
}

// emitUptime produces 12-hourly uptime reports: the router reports when
// powered, with its uptime counter measuring the current power cycle.
// ISP outages do not reset it — that distinction is how §4.2 separates
// powered-off routers from offline ones.
func (w *World) emitUptime(p *household.Profile, agent *gateway.Agent) {
	power := p.PowerOnIntervals(w.Cfg.UptimeFrom, w.Cfg.UptimeTo)
	// Reports fire every 12h of wall time, phase-anchored at the window
	// start, whenever the router happens to be up.
	for t := w.Cfg.UptimeFrom; t.Before(w.Cfg.UptimeTo); t = t.Add(12 * time.Hour) {
		for _, iv := range power {
			if iv.Contains(t) {
				agent.ReportUptimeNow(t, iv.Start)
				w.Acct.UptimeReports++
				break
			}
		}
	}
}

// emitDeviceCensus drives the agent's hourly census against the home's
// device-presence model.
func (w *World) emitDeviceCensus(p *household.Profile, agent *gateway.Agent, env *gateway.Env) {
	power := p.PowerOnIntervals(w.Cfg.UptimeFrom, w.Cfg.UptimeTo)
	for t := w.Cfg.UptimeFrom; t.Before(w.Cfg.UptimeTo); t = t.Add(time.Hour) {
		if !household.CoveredAt(power, t) {
			continue
		}
		w.syncAttachments(p, env, t)
		agent.CensusNow(t)
	}
}

// syncAttachments updates the env's wired set and radio associations to
// the devices online at instant t.
func (w *World) syncAttachments(p *household.Profile, env *gateway.Env, t time.Time) {
	for _, d := range p.Devices {
		env.SetAttached(d.HW, d.Conn, p.DeviceOnline(d, t))
	}
}

// emitWiFiScans drives the agent's 10-minute scan schedule over the WiFi
// window (throttled when clients are associated, as on the real router).
func (w *World) emitWiFiScans(p *household.Profile, agent *gateway.Agent, env *gateway.Env) {
	power := p.PowerOnIntervals(w.Cfg.WiFiFrom, w.Cfg.WiFiTo)
	lastSync := time.Time{}
	for t := w.Cfg.WiFiFrom; t.Before(w.Cfg.WiFiTo); t = t.Add(10 * time.Minute) {
		if !household.CoveredAt(power, t) {
			continue
		}
		// Refresh associations hourly (presence is hour-stable anyway).
		if t.Sub(lastSync) >= time.Hour {
			w.syncAttachments(p, env, t)
			lastSync = t
		}
		agent.ScanNow(t)
	}
}

// emitCapacity runs real ShaperProbe trains through the home's simulated
// access link every twelve hours of the Capacity window.
func (w *World) emitCapacity(p *household.Profile, sink gateway.Sink) {
	online := p.OnlineIntervals(w.Cfg.CapacityFrom, w.Cfg.CapacityTo)
	cfg := shaperprobe.Config{TrainLength: w.Cfg.ProbeTrainLength}
	for t := w.Cfg.CapacityFrom; t.Before(w.Cfg.CapacityTo); t = t.Add(12 * time.Hour) {
		if !household.CoveredAt(online, t) {
			continue
		}
		// A fresh clock per measurement: the probe is a self-contained
		// few-hundred-millisecond experiment.
		// The probe measures the sustained tier: a PowerBoost bucket many
		// times the train size would report the burst rate instead (the
		// train-length ablation bench demonstrates exactly that failure
		// mode), so the study's capacity figure is the post-burst rate.
		clk := clock.NewSim(t)
		link := linksim.NewLink(clk, p.Rand().Child("probe").ChildN("t", int(t.Unix())),
			linksim.Config{
				RateBps: p.UpBps, BufferBytes: p.BufferUpBytes,
				PropDelay: p.PropDelay,
			},
			linksim.Config{
				RateBps: p.DownBps, BufferBytes: 1 << 20,
				PropDelay: p.PropDelay,
			},
		)
		up := shaperprobe.ProbeSync(clk, link.Up, cfg)
		down := shaperprobe.ProbeSync(clk, link.Down, cfg)
		sink.CapacityMeasure(dataset.CapacityMeasure{
			RouterID:   p.ID,
			MeasuredAt: t,
			UpBps:      up.SustainedBps,
			DownBps:    down.SustainedBps,
		})
		w.Acct.CapacityMeasures++
	}
}

// emitTraffic generates the Traffic data set for one consenting home,
// anonymizing identities with the agent's policy — the same transform
// the live capture applies.
func (w *World) emitTraffic(p *household.Profile, agent *gateway.Agent, sink gateway.Sink) {
	anon := agent.Anonymizer()
	gen := trafficgen.New(p)
	online := p.OnlineIntervals(w.Cfg.TrafficFrom, w.Cfg.TrafficTo)
	for day := w.Cfg.TrafficFrom; day.Before(w.Cfg.TrafficTo); day = day.Add(24 * time.Hour) {
		dt := gen.GenerateDay(day, online)
		recs := make([]dataset.FlowRecord, 0, len(dt.Flows))
		for _, f := range dt.Flows {
			recs = append(recs, dataset.FlowRecord{
				RouterID:  p.ID,
				Device:    anon.MAC(f.Device.HW),
				Domain:    anon.Domain(f.Domain),
				Proto:     "tcp",
				First:     f.Start,
				Last:      f.End,
				UpBytes:   f.UpBytes,
				DownBytes: f.DownBytes,
				UpPkts:    f.UpBytes/1400 + 1,
				DownPkts:  f.DownBytes/1400 + 1,
				Conns:     int64(f.Conns),
			})
			w.Acct.GenFlows++
			w.Acct.GenUpBytes += f.UpBytes
			w.Acct.GenDownBytes += f.DownBytes
		}
		if len(recs) > 0 {
			sink.TrafficFlows(recs)
		}
		var samples []dataset.ThroughputSample
		for _, m := range dt.Minutes {
			if m.UpBytes > 0 {
				samples = append(samples, dataset.ThroughputSample{
					RouterID: p.ID, Minute: m.Minute, Dir: "up",
					PeakBps: m.UpPeakBps, TotalBytes: m.UpBytes,
				})
			}
			if m.DownBytes > 0 {
				samples = append(samples, dataset.ThroughputSample{
					RouterID: p.ID, Minute: m.Minute, Dir: "down",
					PeakBps: m.DownPeakBps, TotalBytes: m.DownBytes,
				})
			}
		}
		if len(samples) > 0 {
			sink.TrafficThroughput(samples)
		}
	}
}

// ConsentingHomes returns the Traffic-subset homes.
func (w *World) ConsentingHomes() []*Home {
	var out []*Home
	for _, h := range w.Homes {
		if h.Consent {
			out = append(out, h)
		}
	}
	return out
}
