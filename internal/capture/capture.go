// Package capture is the gateway's passive monitor. It sits on the
// forwarding path and produces the four kinds of Traffic data the paper
// collects (§3.2.2):
//
//  1. packet statistics — size and timestamp of every packet relayed to
//     and from the Internet (aggregated here into per-second throughput,
//     which is what §6.2's utilization analysis consumes);
//  2. flow statistics — 5-tuples with byte/packet counts, attributed to
//     the LAN device behind the NAT;
//  3. DNS responses — A/CNAME records sniffed off port 53, whitelisted
//     or obfuscated;
//  4. MAC addresses — device identities with the lower 24 bits hashed.
//
// Everything leaving this package is already anonymized; raw identifiers
// never reach the collection side, mirroring the deployed firmware.
package capture

import (
	"errors"
	"io"
	"net/netip"
	"sort"
	"time"

	"natpeek/internal/anonymize"
	"natpeek/internal/dns"
	"natpeek/internal/domains"
	"natpeek/internal/mac"
	"natpeek/internal/packet"
	"natpeek/internal/pcap"
	"natpeek/internal/telemetry"
)

// Dir is the packet direction relative to the home.
type Dir int

// Directions.
const (
	Upstream   Dir = iota // LAN → WAN
	Downstream            // WAN → LAN
)

func (d Dir) String() string {
	if d == Upstream {
		return "up"
	}
	return "down"
}

// FlowKey identifies a flow from the home's perspective: the LAN device,
// the remote endpoint, and the transport.
type FlowKey struct {
	Device     mac.Addr // anonymized device MAC
	Proto      packet.IPProto
	RemoteIP   netip.Addr // obfuscated remote address
	RemotePort uint16
	LocalPort  uint16
}

// Flow is one tracked connection.
type Flow struct {
	Key       FlowKey
	Domain    string // whitelisted name or "anon-…" token; "" if unknown
	First     time.Time
	Last      time.Time
	UpBytes   int64
	DownBytes int64
	UpPkts    int64
	DownPkts  int64
}

// DeviceStats aggregates per-device usage.
type DeviceStats struct {
	Device    mac.Addr // anonymized
	UpBytes   int64
	DownBytes int64
	FirstSeen time.Time
	LastSeen  time.Time
}

// Total returns the device's combined traffic volume.
func (d *DeviceStats) Total() int64 { return d.UpBytes + d.DownBytes }

// SecondSample is one second of directional throughput.
type SecondSample struct {
	Second time.Time // truncated to the second
	Bytes  int64
}

// Config tunes the monitor.
type Config struct {
	// LANPrefix distinguishes home addresses from Internet addresses.
	LANPrefix netip.Prefix
	// UserWhitelist adds user-chosen domains to the Alexa 200.
	UserWhitelist []string
	// flowTimeout idles out flows (default 5 minutes).
	flowTimeout time.Duration
	// maxFlows caps the flow table (default 65536). When full, the
	// longest-idle flow is evicted into the finished list.
	maxFlows int
}

// Monitor is the passive capture engine. Not safe for concurrent use.
type Monitor struct {
	cfg    Config
	anon   *anonymize.Policy
	dns    *dns.Cache
	flows  map[FlowKey]*Flow
	done   []*Flow
	devs   map[mac.Addr]*DeviceStats
	perSec map[Dir]*secondTracker
	trace  *pcap.Writer

	// Hot-path telemetry, resolved once at New: each Process call costs
	// two atomic adds plus occasional gauge stores on flow-table changes.
	// The counters aggregate across every monitor in the process (the
	// whole simulated fleet, or the one live gateway).
	mPackets  *telemetry.Counter
	mBytes    *telemetry.Counter
	mFinished *telemetry.Counter
	mEvicted  *telemetry.Counter
	gFlows    *telemetry.Gauge
	gAnon     *telemetry.Gauge
	anonSeen  int // last MACCacheSize pushed into gAnon (delta updates)
}

// SetTrace mirrors every processed frame into a pcap stream (tcpdump/
// Wireshark compatible) — the raw form of the paper's "size and
// timestamp of every packet" collection. Pass nil to stop tracing.
// Privacy note: traces contain raw, un-anonymized frames; the deployed
// firmware never exported them, and neither should callers.
func (m *Monitor) SetTrace(w *pcap.Writer) { m.trace = w }

type secondTracker struct {
	cur     time.Time
	bytes   int64
	history []SecondSample
}

func (s *secondTracker) add(now time.Time, n int64) {
	sec := now.Truncate(time.Second)
	if !sec.Equal(s.cur) {
		if s.bytes > 0 {
			s.history = append(s.history, SecondSample{Second: s.cur, Bytes: s.bytes})
		}
		s.cur = sec
		s.bytes = 0
	}
	s.bytes += n
}

func (s *secondTracker) flush() {
	if s.bytes > 0 {
		s.history = append(s.history, SecondSample{Second: s.cur, Bytes: s.bytes})
		s.bytes = 0
	}
}

// New returns a monitor anonymizing with policy.
func New(cfg Config, policy *anonymize.Policy) *Monitor {
	if cfg.flowTimeout <= 0 {
		cfg.flowTimeout = 5 * time.Minute
	}
	if cfg.maxFlows <= 0 {
		cfg.maxFlows = 65536
	}
	reg := telemetry.Default
	return &Monitor{
		cfg:   cfg,
		anon:  policy,
		dns:   dns.NewCache(0),
		flows: make(map[FlowKey]*Flow),
		devs:  make(map[mac.Addr]*DeviceStats),
		perSec: map[Dir]*secondTracker{
			Upstream:   {},
			Downstream: {},
		},
		mPackets: reg.Counter("natpeek_capture_packets_total",
			"Frames processed by the passive capture pipeline."),
		mBytes: reg.Counter("natpeek_capture_bytes_total",
			"IP payload bytes seen by the passive capture pipeline."),
		mFinished: reg.Counter("natpeek_capture_flows_finished_total",
			"Flows moved to the finished list by idle timeout."),
		mEvicted: reg.Counter("natpeek_capture_flows_evicted_total",
			"Flows force-evicted because the flow table hit its cap."),
		gFlows: reg.Gauge("natpeek_capture_active_flows",
			"Live flow-table entries across all capture monitors."),
		gAnon: reg.Gauge("natpeek_capture_anon_cache_entries",
			"Memoized MAC pseudonyms across all capture monitors."),
	}
}

// Process ingests one frame seen on the LAN side of the NAT (so LAN
// addresses and device MACs are still visible), with its direction and
// capture timestamp.
func (m *Monitor) Process(raw []byte, dir Dir, now time.Time) {
	if m.trace != nil {
		// Trace before any filtering: a capture file records the wire.
		_ = m.trace.WritePacket(pcap.Packet{At: now, Data: raw})
	}
	m.mPackets.Inc()
	p, err := packet.Decode(raw)
	if err != nil || (p.IP4 == nil && p.IP6 == nil) {
		return // non-IP or undecodable frames carry no usage signal
	}

	size := int64(p.Len())
	m.mBytes.Add(size)
	m.perSec[dir].add(now, size)

	// Identify the device and the remote endpoint.
	var devHW mac.Addr
	var local, remote netip.Addr
	var localPort, remotePort uint16
	sp, dp := p.Ports()
	if dir == Upstream {
		devHW = p.Eth.Src
		local, remote = p.SrcIP(), p.DstIP()
		localPort, remotePort = sp, dp
	} else {
		devHW = p.Eth.Dst
		local, remote = p.DstIP(), p.SrcIP()
		localPort, remotePort = dp, sp
	}
	if m.cfg.LANPrefix.IsValid() && !m.cfg.LANPrefix.Contains(local) {
		// Not home-attributable (e.g. router's own WAN chatter).
		return
	}

	// Sniff DNS responses before anonymizing anything.
	if p.UDP != nil && sp == 53 && dir == Downstream {
		if msg, err := dns.Parse(p.Payload); err == nil {
			m.dns.Observe(msg)
		}
	}

	dev := m.anon.MAC(devHW)
	ds, ok := m.devs[dev]
	if !ok {
		ds = &DeviceStats{Device: dev, FirstSeen: now}
		m.devs[dev] = ds
		// New device ⇒ the anonymizer may have grown; push the delta so
		// the gauge stays an exact sum across monitors.
		if n := m.anon.MACCacheSize(); n != m.anonSeen {
			m.gAnon.Add(float64(n - m.anonSeen))
			m.anonSeen = n
		}
	}
	ds.LastSeen = now
	if dir == Upstream {
		ds.UpBytes += size
	} else {
		ds.DownBytes += size
	}

	proto := p.Proto()
	if proto != packet.ProtoTCP && proto != packet.ProtoUDP {
		return // flows are TCP/UDP only
	}

	// Resolve the remote to a domain while we still hold the real
	// address, then obfuscate.
	domain := ""
	if name := m.dns.Domain(remote); name != "" {
		domain = m.anon.DomainWith(name, m.cfg.UserWhitelist)
	}
	key := FlowKey{
		Device:     dev,
		Proto:      proto,
		RemoteIP:   m.anon.IP(remote),
		RemotePort: remotePort,
		LocalPort:  localPort,
	}
	f, ok := m.flows[key]
	if !ok {
		if len(m.flows) >= m.cfg.maxFlows {
			m.evictOldest()
		}
		f = &Flow{Key: key, First: now}
		m.flows[key] = f
		m.gFlows.Add(1)
	}
	f.Last = now
	if domain != "" {
		f.Domain = domain
	}
	if dir == Upstream {
		f.UpBytes += size
		f.UpPkts++
	} else {
		f.DownBytes += size
		f.DownPkts++
	}
}

func (m *Monitor) evictOldest() {
	var oldest *Flow
	for _, f := range m.flows {
		if oldest == nil || f.Last.Before(oldest.Last) {
			oldest = f
		}
	}
	if oldest != nil {
		delete(m.flows, oldest.Key)
		m.done = append(m.done, oldest)
		m.mEvicted.Inc()
		m.gFlows.Add(-1)
	}
}

// ExpireFlows moves flows idle past the timeout to the finished list and
// returns how many moved.
func (m *Monitor) ExpireFlows(now time.Time) int {
	n := 0
	for k, f := range m.flows {
		if now.Sub(f.Last) >= m.cfg.flowTimeout {
			delete(m.flows, k)
			m.done = append(m.done, f)
			n++
		}
	}
	if n > 0 {
		m.mFinished.Add(int64(n))
		m.gFlows.Add(float64(-n))
	}
	return n
}

// FinishAll moves every live flow to the finished list, regardless of
// idle time, and returns how many moved. The gateway calls this on
// power-off so the final export carries complete totals.
func (m *Monitor) FinishAll() int {
	n := 0
	for k, f := range m.flows {
		delete(m.flows, k)
		m.done = append(m.done, f)
		n++
	}
	if n > 0 {
		m.mFinished.Add(int64(n))
		m.gFlows.Add(float64(-n))
	}
	return n
}

// TakeFinishedFlows drains the finished list (idle-expired, evicted, or
// FinishAll'd flows), sorted by first-seen time then key. Each finished
// flow is returned exactly once, with its final byte/packet totals —
// this is the export watermark for incremental flow upload: live flows
// are never exported, so no flow is ever exported twice or with partial
// counts.
func (m *Monitor) TakeFinishedFlows() []*Flow {
	out := m.done
	m.done = nil
	sort.Slice(out, func(i, j int) bool {
		if !out[i].First.Equal(out[j].First) {
			return out[i].First.Before(out[j].First)
		}
		return flowKeyLess(out[i].Key, out[j].Key)
	})
	return out
}

// Flows returns every flow seen (finished first, then live), sorted by
// first-seen time then key for determinism.
func (m *Monitor) Flows() []*Flow {
	out := make([]*Flow, 0, len(m.done)+len(m.flows))
	out = append(out, m.done...)
	for _, f := range m.flows {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].First.Equal(out[j].First) {
			return out[i].First.Before(out[j].First)
		}
		return flowKeyLess(out[i].Key, out[j].Key)
	})
	return out
}

func flowKeyLess(a, b FlowKey) bool {
	if a.Device != b.Device {
		return a.Device.String() < b.Device.String()
	}
	if a.RemoteIP != b.RemoteIP {
		return a.RemoteIP.Less(b.RemoteIP)
	}
	if a.LocalPort != b.LocalPort {
		return a.LocalPort < b.LocalPort
	}
	return a.RemotePort < b.RemotePort
}

// Devices returns per-device stats sorted by descending total volume.
func (m *Monitor) Devices() []*DeviceStats {
	out := make([]*DeviceStats, 0, len(m.devs))
	for _, d := range m.devs {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total() != out[j].Total() {
			return out[i].Total() > out[j].Total()
		}
		return out[i].Device.String() < out[j].Device.String()
	})
	return out
}

// Throughput returns the per-second samples for a direction (flushing the
// current second first).
func (m *Monitor) Throughput(dir Dir) []SecondSample {
	t := m.perSec[dir]
	t.flush()
	return t.history
}

// TakeThroughput returns the per-second samples and clears the history,
// for incremental export.
func (m *Monitor) TakeThroughput(dir Dir) []SecondSample {
	t := m.perSec[dir]
	t.flush()
	out := t.history
	t.history = nil
	return out
}

// TakeThroughputBefore returns and clears only the samples strictly
// before cutoff, leaving later ones (and the live second, unless it is
// already past) buffered. Periodic exporters use a minute-aligned
// cutoff so an in-progress minute is never split across two uploads.
func (m *Monitor) TakeThroughputBefore(dir Dir, cutoff time.Time) []SecondSample {
	t := m.perSec[dir]
	if t.bytes > 0 && t.cur.Before(cutoff) {
		t.flush()
	}
	var out, keep []SecondSample
	for _, s := range t.history {
		if s.Second.Before(cutoff) {
			out = append(out, s)
		} else {
			keep = append(keep, s)
		}
	}
	t.history = keep
	return out
}

// DNSCacheLen reports how many distinct remote addresses currently have
// a sniffed domain mapping — an oracle for end-to-end verification.
func (m *Monitor) DNSCacheLen() int { return m.dns.Len() }

// DomainBytes aggregates traffic volume per domain across all flows.
// Flows with no resolved domain are grouped under "" (the caller decides
// whether to count them as unattributed).
func (m *Monitor) DomainBytes() map[string]int64 {
	out := make(map[string]int64)
	for _, f := range m.Flows() {
		out[f.Domain] += f.UpBytes + f.DownBytes
	}
	return out
}

// WhitelistedShare returns the fraction of total flow volume attributed
// to whitelisted (non-anonymized, non-empty) domains — the paper reports
// this is ~65% (§6.4).
func (m *Monitor) WhitelistedShare() float64 {
	var wl, total int64
	for d, b := range m.DomainBytes() {
		total += b
		if d != "" && !anonymize.IsAnonymized(d) && domains.IsWhitelisted(d) {
			wl += b
		}
	}
	if total == 0 {
		return 0
	}
	return float64(wl) / float64(total)
}

// Replay feeds a pcap stream through the monitor. The direction of each
// frame is inferred from which side of the LAN prefix its source sits
// on. It returns the number of frames processed.
func (m *Monitor) Replay(r *pcap.Reader) (int, error) {
	n := 0
	for {
		pkt, err := r.ReadPacket()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		dir := Downstream
		if p, derr := packet.Decode(pkt.Data); derr == nil && m.cfg.LANPrefix.Contains(p.SrcIP()) {
			dir = Upstream
		}
		m.Process(pkt.Data, dir, pkt.At)
		n++
	}
}
