package gateway

import (
	"net/netip"
	"testing"
	"time"

	"natpeek/internal/capmgmt"
	"natpeek/internal/clock"
	"natpeek/internal/dataset"
	"natpeek/internal/eventsim"
	"natpeek/internal/linksim"
	"natpeek/internal/mac"
	"natpeek/internal/packet"
	"natpeek/internal/rng"
	"natpeek/internal/wifi"
)

var t0 = time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)

// memSink collects everything in memory.
type memSink struct {
	beats      []time.Time
	uptimes    []dataset.UptimeReport
	capacities []dataset.CapacityMeasure
	counts     []dataset.DeviceCount
	sightings  []dataset.DeviceSighting
	scans      []dataset.WiFiScan
	flows      []dataset.FlowRecord
	samples    []dataset.ThroughputSample
}

func (s *memSink) Heartbeat(id string, at time.Time)         { s.beats = append(s.beats, at) }
func (s *memSink) UptimeReport(r dataset.UptimeReport)       { s.uptimes = append(s.uptimes, r) }
func (s *memSink) CapacityMeasure(c dataset.CapacityMeasure) { s.capacities = append(s.capacities, c) }
func (s *memSink) DeviceCensus(c dataset.DeviceCount, sg []dataset.DeviceSighting) {
	s.counts = append(s.counts, c)
	s.sightings = append(s.sightings, sg...)
}
func (s *memSink) WiFiScan(scans []dataset.WiFiScan)   { s.scans = append(s.scans, scans...) }
func (s *memSink) TrafficFlows(f []dataset.FlowRecord) { s.flows = append(s.flows, f...) }
func (s *memSink) TrafficThroughput(ts []dataset.ThroughputSample) {
	s.samples = append(s.samples, ts...)
}

type fixture struct {
	clk   *clock.Sim
	sched *eventsim.Scheduler
	sink  *memSink
	env   *Env
	agent *Agent
}

func newFixture(t *testing.T, consent bool) *fixture {
	t.Helper()
	clk := clock.NewSim(t0)
	sched := eventsim.New(clk, rng.New(1))
	envRadio := wifi.NewEnvironment()
	for i := 0; i < 17; i++ {
		envRadio.AddAP(wifi.AP{BSSID: mac.FromOUI(0x0018F8, uint32(i)), Band: wifi.Band24, Channel: 11, RSSI: -60})
	}
	env := &Env{
		Link: linksim.NewLink(clk, rng.New(2),
			linksim.Config{RateBps: 2e6, BufferBytes: 1 << 20},
			linksim.Config{RateBps: 16e6, BufferBytes: 1 << 20}),
		Radio24: wifi.NewRadio(wifi.Band24, envRadio, rng.New(3)),
		Radio5:  wifi.NewRadio(wifi.Band5, envRadio, rng.New(4)),
	}
	sink := &memSink{}
	agent := New(Config{
		ID: "gw-test", LANPrefix: netip.MustParsePrefix("192.168.1.0/24"),
		AnonKey: []byte("key"), TrafficConsent: consent,
	}, sink, env)
	return &fixture{clk, sched, sink, env, agent}
}

func TestHeartbeatCadence(t *testing.T) {
	f := newFixture(t, false)
	f.agent.PowerOn(f.sched)
	f.clk.Advance(time.Hour)
	// ~60 beats in an hour (jitter keeps it 59–60).
	if n := len(f.sink.beats); n < 58 || n > 61 {
		t.Fatalf("beats in 1h = %d", n)
	}
}

func TestHeartbeatsStopDuringOutage(t *testing.T) {
	f := newFixture(t, false)
	f.agent.PowerOn(f.sched)
	f.clk.Advance(10 * time.Minute)
	before := len(f.sink.beats)
	f.env.Link.SetOutage(true)
	f.clk.Advance(30 * time.Minute)
	if len(f.sink.beats) != before {
		t.Fatal("heartbeats escaped during outage")
	}
	f.env.Link.SetOutage(false)
	f.clk.Advance(10 * time.Minute)
	if len(f.sink.beats) <= before {
		t.Fatal("heartbeats did not resume")
	}
}

func TestPowerOffCancelsEverything(t *testing.T) {
	f := newFixture(t, false)
	f.agent.PowerOn(f.sched)
	f.clk.Advance(5 * time.Minute)
	f.agent.PowerOff(f.clk.Now())
	n := len(f.sink.beats)
	f.clk.Advance(time.Hour)
	if len(f.sink.beats) != n {
		t.Fatal("beats after power-off")
	}
	if f.agent.running {
		t.Fatal("still running")
	}
}

func TestRebootResetsUptime(t *testing.T) {
	f := newFixture(t, false)
	f.agent.PowerOn(f.sched)
	f.clk.Advance(13 * time.Hour) // one report at ~12h
	if len(f.sink.uptimes) == 0 {
		t.Fatal("no uptime report")
	}
	first := f.sink.uptimes[0]
	if first.Uptime < 11*time.Hour || first.Uptime > 13*time.Hour {
		t.Fatalf("uptime = %v", first.Uptime)
	}
	f.agent.PowerOff(f.clk.Now())
	f.clk.Advance(time.Hour)
	f.agent.PowerOn(f.sched)
	f.clk.Advance(13 * time.Hour)
	last := f.sink.uptimes[len(f.sink.uptimes)-1]
	if last.Uptime > 13*time.Hour {
		t.Fatalf("uptime not reset by reboot: %v", last.Uptime)
	}
}

func TestCapacityProbeRuns(t *testing.T) {
	f := newFixture(t, false)
	f.agent.PowerOn(f.sched)
	f.clk.Advance(13 * time.Hour)
	if len(f.sink.capacities) == 0 {
		t.Fatal("no capacity measurement")
	}
	c := f.sink.capacities[0]
	if c.UpBps < 1.7e6 || c.UpBps > 2.3e6 {
		t.Fatalf("up estimate = %.0f, link is 2 Mbps", c.UpBps)
	}
	if c.DownBps < 14e6 || c.DownBps > 18e6 {
		t.Fatalf("down estimate = %.0f, link is 16 Mbps", c.DownBps)
	}
}

func TestCensusCountsAllKinds(t *testing.T) {
	f := newFixture(t, false)
	devWired := mac.MustParse("00:11:9b:00:00:01")
	dev24 := mac.MustParse("a4:b1:97:00:00:02")
	dev5 := mac.MustParse("00:24:8c:00:00:03")
	f.env.SetAttached(devWired, dataset.Wired, true)
	f.env.Radio24.Associate(dev24)
	f.env.Radio5.Associate(dev5)
	f.agent.PowerOn(f.sched)
	f.clk.Advance(90 * time.Minute)
	if len(f.sink.counts) == 0 {
		t.Fatal("no census")
	}
	c := f.sink.counts[0]
	if c.Wired != 1 || c.W24 != 1 || c.W5 != 1 {
		t.Fatalf("census %+v", c)
	}
	if len(f.sink.sightings) < 3 {
		t.Fatalf("sightings = %d", len(f.sink.sightings))
	}
	for _, s := range f.sink.sightings {
		if s.Device == devWired || s.Device == dev24 || s.Device == dev5 {
			t.Fatal("sighting leaked a raw MAC")
		}
	}
}

func TestScanSeesNeighborhood(t *testing.T) {
	f := newFixture(t, false)
	f.agent.PowerOn(f.sched)
	f.clk.Advance(time.Hour)
	if len(f.sink.scans) == 0 {
		t.Fatal("no scans")
	}
	saw24 := false
	for _, s := range f.sink.scans {
		if s.Band == "2.4GHz" {
			saw24 = true
			if s.VisibleAPs != 17 {
				t.Fatalf("visible APs = %d, want 17", s.VisibleAPs)
			}
			if s.Channel != 11 {
				t.Fatalf("scan channel = %d", s.Channel)
			}
		}
	}
	if !saw24 {
		t.Fatal("no 2.4 GHz scan")
	}
}

func TestScanThrottledWithClients(t *testing.T) {
	free := newFixture(t, false)
	free.agent.PowerOn(free.sched)
	free.clk.Advance(3 * time.Hour)
	freeScans := 0
	for _, s := range free.sink.scans {
		if s.Band == "2.4GHz" {
			freeScans++
		}
	}

	busy := newFixture(t, false)
	busy.env.Radio24.Associate(mac.MustParse("a4:b1:97:00:00:09"))
	busy.agent.PowerOn(busy.sched)
	busy.clk.Advance(3 * time.Hour)
	busyScans := 0
	for _, s := range busy.sink.scans {
		if s.Band == "2.4GHz" {
			busyScans++
		}
	}
	if busyScans*2 >= freeScans {
		t.Fatalf("throttling ineffective: %d busy vs %d free", busyScans, freeScans)
	}
}

func makeFlowFrames(f *fixture, n int) {
	devIP := netip.MustParseAddr("192.168.1.10")
	devHW := mac.MustParse("a4:b1:97:00:00:0a")
	gwHW := mac.MustParse("20:4e:7f:00:00:01")
	remote := netip.MustParseAddr("203.0.113.80")
	bld := packet.NewBuilder(devHW, gwHW)
	for i := 0; i < n; i++ {
		raw := bld.TCPv4(devIP, remote, packet.TCP{SrcPort: 5000, DstPort: 443, Flags: packet.FlagACK}, 64, make([]byte, 1000))
		f.agent.HandleFrame(raw, true, f.clk.Now().Add(time.Duration(i)*time.Second))
	}
}

func TestTrafficExportRequiresConsent(t *testing.T) {
	f := newFixture(t, false)
	f.agent.PowerOn(f.sched)
	makeFlowFrames(f, 10)
	f.clk.Advance(13 * time.Hour)
	if len(f.sink.flows) != 0 || len(f.sink.samples) != 0 {
		t.Fatal("traffic exported without consent")
	}
}

func TestTrafficExportWithConsent(t *testing.T) {
	f := newFixture(t, true)
	f.agent.PowerOn(f.sched)
	makeFlowFrames(f, 10)
	f.clk.Advance(13 * time.Hour)
	if len(f.sink.flows) == 0 {
		t.Fatal("no flows exported")
	}
	fl := f.sink.flows[0]
	if fl.RouterID != "gw-test" || fl.UpPkts != 10 {
		t.Fatalf("flow %+v", fl)
	}
	if len(f.sink.samples) == 0 {
		t.Fatal("no throughput samples")
	}
	// 10 KB-ish over 10 s window → peak ≈ 1054*8 bps.
	s := f.sink.samples[0]
	if s.Dir != "up" || s.PeakBps < 8000 {
		t.Fatalf("sample %+v", s)
	}
}

func TestFlowsNotDuplicatedAcrossFlushes(t *testing.T) {
	f := newFixture(t, true)
	f.agent.PowerOn(f.sched)
	makeFlowFrames(f, 5)
	f.clk.Advance(13 * time.Hour)
	n := len(f.sink.flows)
	f.clk.Advance(12 * time.Hour)
	if len(f.sink.flows) != n {
		t.Fatalf("flows duplicated: %d -> %d", n, len(f.sink.flows))
	}
}

func TestThroughputNotDuplicated(t *testing.T) {
	f := newFixture(t, true)
	f.agent.PowerOn(f.sched)
	makeFlowFrames(f, 5)
	f.clk.Advance(13 * time.Hour)
	n := len(f.sink.samples)
	f.clk.Advance(12 * time.Hour)
	if len(f.sink.samples) != n {
		t.Fatal("throughput samples duplicated")
	}
}

func TestFramesIgnoredWhilePoweredOff(t *testing.T) {
	f := newFixture(t, true)
	makeFlowFrames(f, 5) // not powered on
	f.agent.PowerOn(f.sched)
	f.clk.Advance(13 * time.Hour)
	if len(f.sink.flows) != 0 {
		t.Fatal("frames processed while off")
	}
}

// TestHeartbeatCadenceDefaultIsMinute runs a powered-on agent for a simulated
// day and counts what the §3.2.2 schedule emits: a heartbeat every
// minute, an uptime report every 12 h, a census every hour and, with no
// clients associated, a scan of each radio every 10 min. Each firing
// lands less than a minute after its slot, so a run that stops just
// short of a minute past the day holds the day's last slots and not the
// next heartbeat.
func TestHeartbeatCadenceDefaultIsMinute(t *testing.T) {
	f := newFixture(t, false)
	f.agent.PowerOn(f.sched)
	f.clk.Advance(24*time.Hour + time.Minute - time.Nanosecond)
	got := [4]int{len(f.sink.beats), len(f.sink.uptimes), len(f.sink.counts), len(f.sink.scans)}
	if want := [4]int{24 * 60, 2, 24, 2 * 24 * 6}; got != want {
		t.Fatalf("heartbeats, uptime reports, censuses, scan rows in a day = %v, want %v", got, want)
	}
}

func TestCapManagerIntegration(t *testing.T) {
	f := newFixture(t, true)
	f.agent.cfg.Plan = &capmgmt.Plan{MonthlyCapBytes: 20000, BillingDay: 1}
	f.agent.PowerOn(f.sched)
	if f.agent.CapManager() == nil {
		t.Fatal("cap manager not initialized")
	}
	makeFlowFrames(f, 30) // ~32 KB > cap
	mgr := f.agent.CapManager()
	if mgr.Used() == 0 {
		t.Fatal("frames not charged")
	}
	if mgr.Remaining() != 0 {
		t.Fatalf("used %d of 20000, expected over cap", mgr.Used())
	}
	alerts := f.agent.CapAlerts()
	if len(alerts) == 0 {
		t.Fatal("no alerts fired")
	}
	if len(f.agent.CapAlerts()) != 0 {
		t.Fatal("alerts not drained")
	}
	// Charged to the anonymized device, not the raw MAC.
	by := mgr.ByDevice()
	if len(by) != 1 {
		t.Fatalf("devices %v", by)
	}
	raw := mac.MustParse("a4:b1:97:00:00:0a")
	if by[0].Device == raw {
		t.Fatal("raw MAC charged")
	}
	if by[0].Device.OUI() != raw.OUI() {
		t.Fatal("OUI lost")
	}
}

func TestNoPlanNoCapManager(t *testing.T) {
	f := newFixture(t, true)
	f.agent.PowerOn(f.sched)
	makeFlowFrames(f, 5)
	if f.agent.CapManager() != nil || len(f.agent.CapAlerts()) != 0 {
		t.Fatal("cap manager active without a plan")
	}
}
