// Package gateway implements the BISmark router agent: the piece of
// firmware the paper deployed in 126 homes. The agent runs the full
// measurement schedule of §3.2.2 —
//
//   - heartbeats to the collection server ≈ once a minute;
//   - an uptime report every twelve hours;
//   - a ShaperProbe capacity measurement every twelve hours;
//   - an hourly census of wired and per-band wireless devices;
//   - a WiFi neighbourhood scan every ten minutes, throttled when
//     clients are associated (scans can knock clients off);
//   - continuous passive capture of LAN traffic, anonymized before
//     export, only in homes that consented (the Traffic subset).
//
// The agent is driven by a scheduler over a clock, so the same code runs
// on a simulated clock (deterministic, fast-forwarded) and against real
// sockets (cmd/bismark-gateway). The simulated world (internal/world)
// uses it in layers, as DESIGN §1 tabulates: the agent makes the Uptime,
// Devices and WiFi rows, and the Traffic rows in frame mode, while the
// world makes the Heartbeats rows from each home's availability model
// and the Capacity rows from ShaperProbe runs of its own, without the
// agent.
package gateway

import (
	"net/netip"
	"time"

	"natpeek/internal/anonymize"
	"natpeek/internal/capmgmt"
	"natpeek/internal/capture"
	"natpeek/internal/dataset"
	"natpeek/internal/eventsim"
	"natpeek/internal/linksim"
	"natpeek/internal/mac"
	"natpeek/internal/nat"
	"natpeek/internal/packet"
	"natpeek/internal/shaperprobe"
	"natpeek/internal/telemetry"
	"natpeek/internal/wifi"
)

// Sink receives everything the agent measures. The collector implements
// it over HTTP/UDP; the world simulator implements it in memory.
type Sink interface {
	Heartbeat(routerID string, at time.Time)
	UptimeReport(r dataset.UptimeReport)
	CapacityMeasure(c dataset.CapacityMeasure)
	DeviceCensus(c dataset.DeviceCount, sightings []dataset.DeviceSighting)
	WiFiScan(scans []dataset.WiFiScan)
	TrafficFlows(flows []dataset.FlowRecord)
	TrafficThroughput(samples []dataset.ThroughputSample)
}

// windowSink is the optional tracing extension of Sink: a sink that
// wants export-window context around each measurement pass implements
// it (collector.Client does; the simulator's in-memory sink does not).
// Discovering it structurally keeps Sink — and every existing
// implementation — unchanged.
type windowSink interface {
	BeginExportWindow(kind string, at time.Time)
	EndExportWindow(at time.Time)
}

// exportWindow brackets one measurement pass for sinks that trace.
// It returns the close function; callers defer it.
func (a *Agent) exportWindow(kind string, now time.Time) func() {
	ws, ok := a.sink.(windowSink)
	if !ok {
		return func() {}
	}
	ws.BeginExportWindow(kind, now)
	return func() { ws.EndExportWindow(now) }
}

// Config tunes an agent.
type Config struct {
	ID        string
	LANPrefix netip.Prefix
	// AnonKey keys the privacy transforms; one key per study period.
	AnonKey []byte
	// TrafficConsent enables flow/throughput export (25 of the paper's
	// homes). Without consent the agent still counts devices but exports
	// no traffic detail.
	TrafficConsent bool
	// UserWhitelist extends the Alexa-200 domain whitelist.
	UserWhitelist []string

	// Plan, when set, enables the uCap-style usage-cap manager (§3.1):
	// every captured frame is charged to its device and threshold alerts
	// surface through CapAlerts.
	Plan *capmgmt.Plan

	// scanThrottle divides the scan rate when clients are associated
	// (default 3: scan every 30 min instead of every 10).
	scanThrottle int
}

// The §3.2.2 measurement schedule.
const (
	heartbeatEvery = time.Minute
	reportEvery    = 12 * time.Hour
	censusEvery    = time.Hour
	scanEvery      = 10 * time.Minute
)

func (c *Config) fill() {
	if c.scanThrottle <= 0 {
		c.scanThrottle = 3
	}
}

// Env is the home environment the agent is plugged into.
type Env struct {
	// Link is the access link (nil when running over real sockets; the
	// capacity probe is then skipped).
	Link *linksim.Link
	// Radio24/Radio5 are the two radios of the WNDR3800.
	Radio24 *wifi.Radio
	Radio5  *wifi.Radio
	// NAT is the translation table on the forwarding path (required for
	// ForwardUp).
	NAT *nat.Table

	wired map[mac.Addr]bool
}

// SetAttached puts a device on its link when online — an Ethernet port,
// or an association with the 2.4 or 5 GHz radio — and takes it off when
// not.
func (e *Env) SetAttached(hw mac.Addr, conn dataset.ConnKind, online bool) {
	switch conn {
	case dataset.Wired:
		if !online {
			delete(e.wired, hw)
			return
		}
		if e.wired == nil {
			e.wired = make(map[mac.Addr]bool)
		}
		e.wired[hw] = true
	case dataset.Wireless24:
		setAssociated(e.Radio24, hw, online)
	default:
		setAssociated(e.Radio5, hw, online)
	}
}

func setAssociated(r *wifi.Radio, hw mac.Addr, online bool) {
	if online {
		r.Associate(hw)
	} else {
		r.Disassociate(hw)
	}
}

// WiredCount returns the number of Ethernet-attached devices.
func (e *Env) WiredCount() int { return len(e.wired) }

// WiredDevices returns the Ethernet-attached devices (sorted).
func (e *Env) WiredDevices() []mac.Addr {
	out := make([]mac.Addr, 0, len(e.wired))
	for hw := range e.wired {
		out = append(out, hw)
	}
	sortMACs(out)
	return out
}

func sortMACs(s []mac.Addr) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].String() < s[j-1].String(); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Agent is a running BISmark router.
type Agent struct {
	cfg  Config
	sink Sink
	env  *Env

	anon    *anonymize.Policy
	monitor *capture.Monitor

	caps      *capmgmt.Manager
	capAlerts []capmgmt.Alert

	bootAt  time.Time
	running bool
	tasks   []*eventsim.Task

	// scanSkips throttles WiFi scans per radio (index 0 = 2.4 GHz,
	// 1 = 5 GHz). The counters are independent: with clients on both
	// bands, each radio still scans every scanThrottle-th pass instead
	// of the two radios splitting one budget on alternating passes.
	scanSkips [2]int

	// measurement-loop telemetry, resolved once per agent; every counter
	// is shared across the fleet, so the fleet-wide run/skip balance is
	// one scrape away.
	mRuns  *agentKindCounters
	mSkips *agentKindCounters

	stats ExportStats
}

// agentKindCounters caches the per-kind counters of one labeled family so
// the scheduler callbacks do a single atomic add, not a map lookup.
type agentKindCounters struct {
	heartbeat, census, scan, report, capacity *telemetry.Counter
}

func newAgentKindCounters(vec *telemetry.CounterVec) *agentKindCounters {
	return &agentKindCounters{
		heartbeat: vec.With("heartbeat"),
		census:    vec.With("census"),
		scan:      vec.With("scan"),
		report:    vec.With("report"),
		capacity:  vec.With("capacity"),
	}
}

// New builds an agent.
func New(cfg Config, sink Sink, env *Env) *Agent {
	cfg.fill()
	anon := anonymize.New(cfg.AnonKey)
	return &Agent{
		cfg:  cfg,
		sink: sink,
		env:  env,
		anon: anon,
		monitor: capture.New(capture.Config{
			LANPrefix:     cfg.LANPrefix,
			UserWhitelist: cfg.UserWhitelist,
		}, anon),
		mRuns: newAgentKindCounters(telemetry.Default.CounterVec(
			"natpeek_gateway_measurements_total",
			"Measurements executed by gateway agents in this process, per kind.", "kind")),
		mSkips: newAgentKindCounters(telemetry.Default.CounterVec(
			"natpeek_gateway_measurements_skipped_total",
			"Measurements skipped (link outage, scan throttle), per kind.", "kind")),
	}
}

// Anonymizer exposes the agent's privacy policy (the world uses it to
// anonymize fast-path records identically).
func (a *Agent) Anonymizer() *anonymize.Policy { return a.anon }

// PowerOn boots the router and starts the measurement schedule on sched.
func (a *Agent) PowerOn(sched *eventsim.Scheduler) {
	if a.running {
		return
	}
	a.running = true
	a.bootAt = sched.Clock().Now()
	if a.cfg.Plan != nil && a.caps == nil {
		a.caps = capmgmt.New(*a.cfg.Plan, a.bootAt)
	}

	hb := sched.Every(heartbeatEvery, 5*time.Second, func(now time.Time) {
		a.sendHeartbeat(now)
	})
	census := sched.Every(censusEvery, time.Minute, func(now time.Time) {
		a.census(now)
	})
	scan := sched.Every(scanEvery, 30*time.Second, func(now time.Time) {
		a.scan(now)
	})
	report := sched.Every(reportEvery, time.Minute, func(now time.Time) {
		a.report(sched, now)
	})
	a.tasks = []*eventsim.Task{hb, census, scan, report}
}

// PowerOff shuts the router down, cancelling all scheduled work and
// flushing consented traffic data (the real firmware persisted its
// buffers to flash).
func (a *Agent) PowerOff(now time.Time) {
	if !a.running {
		return
	}
	a.running = false
	for _, t := range a.tasks {
		t.Cancel()
	}
	a.tasks = nil
	a.finalFlush(now)
}

// sendHeartbeat emits one heartbeat unless the link is in outage (the
// datagram would be lost in the access network).
func (a *Agent) sendHeartbeat(now time.Time) {
	if a.env.Link != nil && a.env.Link.Outage() {
		a.mSkips.heartbeat.Inc()
		return
	}
	a.mRuns.heartbeat.Inc()
	a.sink.Heartbeat(a.cfg.ID, now)
	a.stats.Heartbeats++
}

// census counts attached devices per connection kind and reports
// anonymized per-device sightings.
func (a *Agent) census(now time.Time) {
	a.mRuns.census.Inc()
	defer a.exportWindow("census", now)()
	count := dataset.DeviceCount{
		RouterID: a.cfg.ID,
		At:       now,
		Wired:    a.env.WiredCount(),
	}
	var sightings []dataset.DeviceSighting
	add := func(hw mac.Addr, kind dataset.ConnKind) {
		sightings = append(sightings, dataset.DeviceSighting{
			RouterID: a.cfg.ID, At: now, Device: a.anon.MAC(hw), Kind: kind,
		})
	}
	for _, hw := range a.env.WiredDevices() {
		add(hw, dataset.Wired)
	}
	if a.env.Radio24 != nil {
		count.W24 = a.env.Radio24.ClientCount()
		for _, hw := range a.env.Radio24.Clients() {
			add(hw, dataset.Wireless24)
		}
	}
	if a.env.Radio5 != nil {
		count.W5 = a.env.Radio5.ClientCount()
		for _, hw := range a.env.Radio5.Clients() {
			add(hw, dataset.Wireless5)
		}
	}
	a.sink.DeviceCensus(count, sightings)
	a.stats.DeviceCensusRows += int64(1 + len(sightings))
}

// scan surveys both radios' channels, throttling when clients are
// associated (the §3.2.2 disassociation side effect).
func (a *Agent) scan(now time.Time) {
	defer a.exportWindow("scan", now)()
	var scans []dataset.WiFiScan
	for i, r := range []*wifi.Radio{a.env.Radio24, a.env.Radio5} {
		if r == nil {
			continue
		}
		if r.ClientCount() > 0 {
			a.scanSkips[i]++
			if a.scanSkips[i]%a.cfg.scanThrottle != 0 {
				a.mSkips.scan.Inc()
				continue
			}
		}
		a.mRuns.scan.Inc()
		res := r.Scan()
		scans = append(scans, dataset.WiFiScan{
			RouterID:   a.cfg.ID,
			At:         now,
			Band:       r.Band.String(),
			Channel:    res.Channel,
			VisibleAPs: len(res.VisibleAPs),
			Clients:    r.ClientCount(),
		})
	}
	if len(scans) > 0 {
		a.sink.WiFiScan(scans)
		a.stats.WiFiScanRows += int64(len(scans))
	}
}

// report sends the 12-hourly uptime report, runs the capacity probe, and
// flushes consented traffic data.
func (a *Agent) report(sched *eventsim.Scheduler, now time.Time) {
	a.mRuns.report.Inc()
	defer a.exportWindow("report", now)()
	a.sink.UptimeReport(dataset.UptimeReport{
		RouterID:   a.cfg.ID,
		ReportedAt: now,
		Uptime:     now.Sub(a.bootAt),
	})
	a.stats.UptimeReports++
	if a.env.Link != nil && !a.env.Link.Outage() {
		a.mRuns.capacity.Inc()
		a.probeCapacity(sched, now)
	} else if a.env.Link != nil {
		a.mSkips.capacity.Inc()
	}
	a.flushTraffic(now)
}

// probeCapacity measures both directions with ShaperProbe.
func (a *Agent) probeCapacity(sched *eventsim.Scheduler, now time.Time) {
	cfg := shaperprobe.Config{}
	var up shaperprobe.Estimate
	clk := sched.Clock()
	shaperprobe.Probe(clk, a.env.Link.Up, cfg, func(e shaperprobe.Estimate) {
		up = e
		shaperprobe.Probe(clk, a.env.Link.Down, cfg, func(down shaperprobe.Estimate) {
			a.sink.CapacityMeasure(dataset.CapacityMeasure{
				RouterID:   a.cfg.ID,
				MeasuredAt: now,
				UpBps:      up.SustainedBps,
				DownBps:    down.SustainedBps,
			})
			a.stats.CapacityMeasures++
		})
	})
}

// CensusNow triggers one device census immediately. The fleet simulator
// drives censuses from precomputed schedules through this entry point so
// the exported rows go through the same code as the live agent's.
func (a *Agent) CensusNow(now time.Time) { a.census(now) }

// ScanNow triggers one WiFi scan pass immediately (throttling included).
func (a *Agent) ScanNow(now time.Time) { a.scan(now) }

// ReportUptimeNow emits one uptime report with an explicit boot time.
func (a *Agent) ReportUptimeNow(now, bootedAt time.Time) {
	a.sink.UptimeReport(dataset.UptimeReport{
		RouterID:   a.cfg.ID,
		ReportedAt: now,
		Uptime:     now.Sub(bootedAt),
	})
	a.stats.UptimeReports++
}

// HandleFrame feeds one LAN-side frame to the passive monitor and, when
// a data plan is configured, charges it to the device's usage budget.
func (a *Agent) HandleFrame(raw []byte, up bool, now time.Time) {
	if !a.running {
		return
	}
	dir := capture.Downstream
	if up {
		dir = capture.Upstream
	}
	a.monitor.Process(raw, dir, now)
	if a.caps != nil {
		if dev, ok := frameDevice(raw, up); ok {
			alerts := a.caps.Record(a.anon.MAC(dev), int64(len(raw)), now)
			a.capAlerts = append(a.capAlerts, alerts...)
		}
	}
}

// frameDevice extracts the LAN device MAC from a frame.
func frameDevice(raw []byte, up bool) (mac.Addr, bool) {
	var eth packet.Ethernet
	if _, err := eth.Unmarshal(raw); err != nil {
		return mac.Addr{}, false
	}
	if up {
		return eth.Src, true
	}
	return eth.Dst, true
}

// CapManager exposes the usage-cap manager (nil when no plan is set).
func (a *Agent) CapManager() *capmgmt.Manager { return a.caps }

// CapAlerts drains the threshold alerts fired since the last call.
func (a *Agent) CapAlerts() []capmgmt.Alert {
	out := a.capAlerts
	a.capAlerts = nil
	return out
}

// Monitor exposes the passive monitor (read-only use in tests/examples).
func (a *Agent) Monitor() *capture.Monitor { return a.monitor }

// ExportStats tallies what an agent has handed to its sink, one counter
// per data set. The verify harness compares these against what the
// traffic generator produced and what the collector ingested — every
// byte and row must be conserved across the layers.
type ExportStats struct {
	Heartbeats          int64
	UptimeReports       int64
	CapacityMeasures    int64
	DeviceCensusRows    int64
	WiFiScanRows        int64
	FlowRecords         int64
	FlowUpBytes         int64
	FlowDownBytes       int64
	FlowUpPkts          int64
	FlowDownPkts        int64
	ThroughputRows      int64
	ThroughputUpBytes   int64
	ThroughputDownBytes int64
}

// Add accumulates other into s (for fleet-wide totals).
func (s *ExportStats) Add(other ExportStats) {
	s.Heartbeats += other.Heartbeats
	s.UptimeReports += other.UptimeReports
	s.CapacityMeasures += other.CapacityMeasures
	s.DeviceCensusRows += other.DeviceCensusRows
	s.WiFiScanRows += other.WiFiScanRows
	s.FlowRecords += other.FlowRecords
	s.FlowUpBytes += other.FlowUpBytes
	s.FlowDownBytes += other.FlowDownBytes
	s.FlowUpPkts += other.FlowUpPkts
	s.FlowDownPkts += other.FlowDownPkts
	s.ThroughputRows += other.ThroughputRows
	s.ThroughputUpBytes += other.ThroughputUpBytes
	s.ThroughputDownBytes += other.ThroughputDownBytes
}

// ExportStats returns a snapshot of the agent's cumulative export
// accounting.
func (a *Agent) ExportStats() ExportStats { return a.stats }

// flushTraffic exports newly finished flow records and throughput
// samples if the household consented. Export drains the monitor's
// finished-flow list, so each flow is exported exactly once, with final
// totals — live flows wait for idle timeout (or power-off) rather than
// being exported mid-life with partial counts. Throughput is exported
// only for minutes complete at flush time: draining the in-progress
// minute would split it across two uploads, producing two rows with the
// same (router, minute, direction) dedupe key.
func (a *Agent) flushTraffic(now time.Time) {
	if !a.cfg.TrafficConsent {
		return
	}
	a.monitor.ExpireFlows(now)
	cutoff := now.Truncate(time.Minute)
	a.exportFinished(func(dir capture.Dir) []capture.SecondSample {
		return a.monitor.TakeThroughputBefore(dir, cutoff)
	})
}

// FlushTrafficNow forces a periodic-style traffic export at now, as if
// the jittered report task had just fired. Harness hook: the verify
// golden runs use it to flush at controlled instants.
func (a *Agent) FlushTrafficNow(now time.Time) { a.flushTraffic(now) }

// finalFlush is flushTraffic for power-off: every live flow is finished
// first (the real firmware persisted its buffers to flash), so nothing
// in the monitor is lost with the power. Unlike the periodic flush, it
// drains the in-progress minute too — there will be no later flush to
// pick it up.
func (a *Agent) finalFlush(now time.Time) {
	if !a.cfg.TrafficConsent {
		return
	}
	defer a.exportWindow("final-flush", now)()
	a.monitor.ExpireFlows(now)
	a.monitor.FinishAll()
	a.exportFinished(a.monitor.TakeThroughput)
}

func (a *Agent) exportFinished(take func(capture.Dir) []capture.SecondSample) {
	if flows := a.monitor.TakeFinishedFlows(); len(flows) > 0 {
		recs := make([]dataset.FlowRecord, 0, len(flows))
		for _, f := range flows {
			recs = append(recs, dataset.FlowRecord{
				RouterID:  a.cfg.ID,
				Device:    f.Key.Device,
				Domain:    f.Domain,
				Proto:     f.Key.Proto.String(),
				First:     f.First,
				Last:      f.Last,
				UpBytes:   f.UpBytes,
				DownBytes: f.DownBytes,
				UpPkts:    f.UpPkts,
				DownPkts:  f.DownPkts,
				Conns:     1,
			})
		}
		a.sink.TrafficFlows(recs)
		a.stats.FlowRecords += int64(len(recs))
		for _, r := range recs {
			a.stats.FlowUpBytes += r.UpBytes
			a.stats.FlowDownBytes += r.DownBytes
			a.stats.FlowUpPkts += r.UpPkts
			a.stats.FlowDownPkts += r.DownPkts
		}
	}
	samples := a.aggregateThroughput(take)
	if len(samples) > 0 {
		a.sink.TrafficThroughput(samples)
		a.stats.ThroughputRows += int64(len(samples))
		for _, s := range samples {
			switch s.Dir {
			case capture.Upstream.String():
				a.stats.ThroughputUpBytes += s.TotalBytes
			case capture.Downstream.String():
				a.stats.ThroughputDownBytes += s.TotalBytes
			}
		}
	}
}

// aggregateThroughput converts per-second history obtained from take
// into the per-minute (peak, total) rows of the Traffic data set. The
// taken history is consumed.
func (a *Agent) aggregateThroughput(take func(capture.Dir) []capture.SecondSample) []dataset.ThroughputSample {
	var out []dataset.ThroughputSample
	for _, dir := range []capture.Dir{capture.Upstream, capture.Downstream} {
		secs := take(dir)
		if len(secs) == 0 {
			continue
		}
		var cur time.Time
		var peak, total int64
		flush := func() {
			if total > 0 {
				out = append(out, dataset.ThroughputSample{
					RouterID:   a.cfg.ID,
					Minute:     cur,
					Dir:        dir.String(),
					PeakBps:    float64(peak * 8),
					TotalBytes: total,
				})
			}
		}
		for _, s := range secs {
			m := s.Second.Truncate(time.Minute)
			if !m.Equal(cur) {
				flush()
				cur, peak, total = m, 0, 0
			}
			if s.Bytes > peak {
				peak = s.Bytes
			}
			total += s.Bytes
		}
		flush()
	}
	return out
}
