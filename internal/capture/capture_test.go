package capture

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"natpeek/internal/anonymize"
	"natpeek/internal/dns"
	"natpeek/internal/mac"
	"natpeek/internal/packet"
	"natpeek/internal/pcap"
)

var (
	t0     = time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	lanPfx = netip.MustParsePrefix("192.168.1.0/24")
	devIP  = netip.MustParseAddr("192.168.1.10")
	dev2IP = netip.MustParseAddr("192.168.1.11")
	webIP  = netip.MustParseAddr("173.194.43.36")
	devHW  = mac.MustParse("a4:b1:97:00:00:0a")
	dev2HW = mac.MustParse("00:24:54:00:00:0b")
	gwHW   = mac.MustParse("20:4e:7f:00:00:01")
)

func newMonitor() *Monitor {
	return New(Config{LANPrefix: lanPfx}, anonymize.New([]byte("test")))
}

func upTCP(src netip.Addr, hw mac.Addr, sport uint16, n int) []byte {
	return packet.NewBuilder(hw, gwHW).TCPv4(src, webIP,
		packet.TCP{SrcPort: sport, DstPort: 443, Flags: packet.FlagACK}, 64, make([]byte, n))
}

func downTCP(dst netip.Addr, hw mac.Addr, dport uint16, n int) []byte {
	return packet.NewBuilder(gwHW, hw).TCPv4(webIP, dst,
		packet.TCP{SrcPort: 443, DstPort: dport, Flags: packet.FlagACK}, 60, make([]byte, n))
}

func dnsReply(qname string, addr netip.Addr, dport uint16) []byte {
	msg := dns.NewQuery(1, qname, dns.TypeA).Answer(dns.RR{
		Name: qname, Type: dns.TypeA, Class: dns.ClassIN, TTL: 60, Addr: addr,
	})
	return packet.NewBuilder(gwHW, devHW).UDPv4(netip.MustParseAddr("8.8.8.8"), devIP, 53, dport, 60, msg.Marshal())
}

func TestFlowTrackingBothDirections(t *testing.T) {
	m := newMonitor()
	m.Process(upTCP(devIP, devHW, 5000, 100), Upstream, t0)
	m.Process(downTCP(devIP, devHW, 5000, 1400), Downstream, t0.Add(time.Millisecond))
	flows := m.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %d, want 1 (both directions one flow)", len(flows))
	}
	f := flows[0]
	if f.UpPkts != 1 || f.DownPkts != 1 {
		t.Fatalf("pkts %d/%d", f.UpPkts, f.DownPkts)
	}
	if f.UpBytes <= 100 || f.DownBytes <= 1400 {
		t.Fatalf("bytes %d/%d (must include headers)", f.UpBytes, f.DownBytes)
	}
}

func TestDeviceAttributionAnonymized(t *testing.T) {
	m := newMonitor()
	m.Process(upTCP(devIP, devHW, 5000, 10), Upstream, t0)
	devs := m.Devices()
	if len(devs) != 1 {
		t.Fatalf("devices = %d", len(devs))
	}
	if devs[0].Device == devHW {
		t.Fatal("device MAC not anonymized")
	}
	if devs[0].Device.OUI() != devHW.OUI() {
		t.Fatal("OUI lost in anonymization")
	}
}

func TestPerDeviceByteSplit(t *testing.T) {
	m := newMonitor()
	m.Process(upTCP(devIP, devHW, 5000, 100), Upstream, t0)
	m.Process(upTCP(dev2IP, dev2HW, 5001, 100), Upstream, t0)
	m.Process(downTCP(dev2IP, dev2HW, 5001, 5000), Downstream, t0)
	devs := m.Devices()
	if len(devs) != 2 {
		t.Fatalf("devices = %d", len(devs))
	}
	// Sorted by volume: dev2 first.
	if devs[0].DownBytes == 0 || devs[1].DownBytes != 0 {
		t.Fatal("per-device split wrong")
	}
	if devs[0].Total() <= devs[1].Total() {
		t.Fatal("not sorted by volume")
	}
}

func TestDNSSniffAttributesDomains(t *testing.T) {
	m := newMonitor()
	m.Process(dnsReply("www.google.com", webIP, 40000), Downstream, t0)
	m.Process(upTCP(devIP, devHW, 5000, 10), Upstream, t0.Add(time.Second))
	flows := m.Flows()
	var tcp *Flow
	for _, f := range flows {
		if f.Key.Proto == packet.ProtoTCP {
			tcp = f
		}
	}
	if tcp == nil {
		t.Fatal("tcp flow missing")
	}
	if tcp.Domain != "www.google.com" {
		t.Fatalf("domain = %q", tcp.Domain)
	}
}

func TestUnlistedDomainObfuscated(t *testing.T) {
	m := newMonitor()
	m.Process(dnsReply("private-clinic.example", webIP, 40000), Downstream, t0)
	m.Process(upTCP(devIP, devHW, 5000, 10), Upstream, t0.Add(time.Second))
	for _, f := range m.Flows() {
		if f.Key.Proto != packet.ProtoTCP {
			continue
		}
		if !anonymize.IsAnonymized(f.Domain) {
			t.Fatalf("unlisted domain leaked: %q", f.Domain)
		}
	}
}

func TestUserWhitelistHonored(t *testing.T) {
	m := New(Config{LANPrefix: lanPfx, UserWhitelist: []string{"myhome.example"}}, anonymize.New([]byte("k")))
	m.Process(dnsReply("nas.myhome.example", webIP, 40000), Downstream, t0)
	m.Process(upTCP(devIP, devHW, 5000, 10), Upstream, t0.Add(time.Second))
	for _, f := range m.Flows() {
		if f.Key.Proto == packet.ProtoTCP && f.Domain != "nas.myhome.example" {
			t.Fatalf("user whitelist ignored: %q", f.Domain)
		}
	}
}

func TestRemoteIPObfuscated(t *testing.T) {
	m := newMonitor()
	m.Process(upTCP(devIP, devHW, 5000, 10), Upstream, t0)
	f := m.Flows()[0]
	if f.Key.RemoteIP == webIP {
		t.Fatal("remote IP not obfuscated")
	}
}

func TestNonLANTrafficIgnoredForFlows(t *testing.T) {
	m := newMonitor()
	// A frame whose "local" side is not in the LAN prefix (router WAN
	// chatter) must not create device stats.
	outside := packet.NewBuilder(devHW, gwHW).TCPv4(
		netip.MustParseAddr("203.0.113.5"), webIP,
		packet.TCP{SrcPort: 5000, DstPort: 443, Flags: packet.FlagACK}, 64, nil)
	m.Process(outside, Upstream, t0)
	if len(m.Devices()) != 0 {
		t.Fatal("non-LAN traffic attributed to a device")
	}
}

func TestGarbageFramesIgnored(t *testing.T) {
	m := newMonitor()
	m.Process([]byte{1, 2, 3}, Upstream, t0)
	m.Process(nil, Downstream, t0)
	arp := packet.NewBuilder(devHW, gwHW).ARPRequest(devIP, netip.MustParseAddr("192.168.1.1"))
	m.Process(arp, Upstream, t0)
	if len(m.Flows()) != 0 || len(m.Devices()) != 0 {
		t.Fatal("garbage created state")
	}
}

func TestFlowExpiry(t *testing.T) {
	m := New(Config{LANPrefix: lanPfx, flowTimeout: time.Minute}, anonymize.New([]byte("k")))
	m.Process(upTCP(devIP, devHW, 5000, 10), Upstream, t0)
	if n := m.ExpireFlows(t0.Add(30 * time.Second)); n != 0 {
		t.Fatal("expired too early")
	}
	if n := m.ExpireFlows(t0.Add(2 * time.Minute)); n != 1 {
		t.Fatalf("expired %d, want 1", n)
	}
	if len(m.flows) != 0 {
		t.Fatal("flow still active")
	}
	// Finished flows still reported.
	if len(m.Flows()) != 1 {
		t.Fatal("finished flow lost")
	}
}

func TestFlowTableCapEvicts(t *testing.T) {
	m := New(Config{LANPrefix: lanPfx, maxFlows: 10}, anonymize.New([]byte("k")))
	for i := 0; i < 20; i++ {
		m.Process(upTCP(devIP, devHW, uint16(5000+i), 10), Upstream, t0.Add(time.Duration(i)*time.Second))
	}
	if len(m.flows) > 10 {
		t.Fatalf("active = %d, cap 10", len(m.flows))
	}
	if len(m.Flows()) != 20 {
		t.Fatalf("total flows = %d, want 20", len(m.Flows()))
	}
}

func TestThroughputPerSecond(t *testing.T) {
	m := newMonitor()
	// 3 packets in second 0, 1 packet in second 2.
	m.Process(upTCP(devIP, devHW, 5000, 1000), Upstream, t0)
	m.Process(upTCP(devIP, devHW, 5000, 1000), Upstream, t0.Add(100*time.Millisecond))
	m.Process(upTCP(devIP, devHW, 5000, 1000), Upstream, t0.Add(900*time.Millisecond))
	m.Process(upTCP(devIP, devHW, 5000, 1000), Upstream, t0.Add(2*time.Second))
	samples := m.Throughput(Upstream)
	if len(samples) != 2 {
		t.Fatalf("samples = %d, want 2 busy seconds", len(samples))
	}
	if samples[0].Bytes <= 2*samples[1].Bytes {
		t.Fatalf("second-0 bytes %d vs second-2 bytes %d", samples[0].Bytes, samples[1].Bytes)
	}
	if !samples[0].Second.Equal(t0) || !samples[1].Second.Equal(t0.Add(2*time.Second)) {
		t.Fatal("sample timestamps wrong")
	}
}

func TestDomainAggregates(t *testing.T) {
	m := newMonitor()
	m.Process(dnsReply("www.google.com", webIP, 40000), Downstream, t0)
	for i := 0; i < 3; i++ {
		m.Process(upTCP(devIP, devHW, uint16(5000+i), 100), Upstream, t0.Add(time.Second))
	}
	conns := 0
	for _, f := range m.Flows() {
		if f.Domain == "www.google.com" {
			conns++
		}
	}
	if conns != 3 {
		t.Fatalf("flows to www.google.com = %d, want 3", conns)
	}
	bytes := m.DomainBytes()
	if bytes["www.google.com"] <= 0 {
		t.Fatalf("bytes = %v", bytes)
	}
}

func TestWhitelistedShare(t *testing.T) {
	m := newMonitor()
	m.Process(dnsReply("www.google.com", webIP, 40000), Downstream, t0)
	m.Process(upTCP(devIP, devHW, 5000, 1000), Upstream, t0.Add(time.Second))
	share := m.WhitelistedShare()
	if share <= 0.5 {
		t.Fatalf("share = %v with only whitelisted flow traffic", share)
	}
}

func BenchmarkProcessUpstream(b *testing.B) {
	m := newMonitor()
	frame := upTCP(devIP, devHW, 5000, 1400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Process(frame, Upstream, t0.Add(time.Duration(i)*time.Millisecond))
	}
}

func TestTraceMirrorsFrames(t *testing.T) {
	m := newMonitor()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTrace(w)
	f1 := upTCP(devIP, devHW, 5000, 100)
	m.Process(f1, Upstream, t0)
	m.Process([]byte{1, 2, 3}, Upstream, t0) // undecodable frames trace too
	m.SetTrace(nil)
	m.Process(f1, Upstream, t0.Add(time.Second)) // not traced

	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 2 {
		t.Fatalf("traced %d packets, want 2", len(pkts))
	}
	if !bytes.Equal(pkts[0].Data, f1) {
		t.Fatal("trace corrupted the frame")
	}
	if !pkts[0].At.Equal(t0) {
		t.Fatalf("trace timestamp %v", pkts[0].At)
	}
}

func TestReplayPcap(t *testing.T) {
	// Write a trace with one monitor, replay it into a fresh one, and
	// compare the resulting flow tables.
	rec := newMonitor()
	var buf bytes.Buffer
	w, _ := pcap.NewWriter(&buf, 0)
	rec.SetTrace(w)
	rec.Process(dnsReply("www.google.com", webIP, 40000), Downstream, t0)
	rec.Process(upTCP(devIP, devHW, 5000, 100), Upstream, t0.Add(time.Second))
	rec.Process(downTCP(devIP, devHW, 5000, 900), Downstream, t0.Add(2*time.Second))

	replayed := newMonitor()
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n, err := replayed.Replay(r)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replayed %d frames", n)
	}
	a, b := rec.Flows(), replayed.Flows()
	if len(a) != len(b) {
		t.Fatalf("flow counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].UpBytes != b[i].UpBytes || a[i].Domain != b[i].Domain {
			t.Fatalf("flow %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestAblationFlowTimeout is the flow-table idle-timeout ablation
// (DESIGN.md §4): 100 minutes of one device's traffic over 20
// long-lived connections, a packet every 3 s. A 30 s timeout splits
// each connection into at least 10× the records a 5 min timeout keeps;
// from 2 min up, no gap is long enough to split one, so 2, 5 and 30 min
// give the same records.
func TestAblationFlowTimeout(t *testing.T) {
	records := func(timeout time.Duration) int {
		m := New(Config{LANPrefix: lanPfx, flowTimeout: timeout}, anonymize.New([]byte("k")))
		for i := 0; i < 2000; i++ {
			now := t0.Add(time.Duration(i) * 3 * time.Second)
			m.Process(upTCP(devIP, devHW, uint16(5000+i%20), 400), Upstream, now)
			if i%100 == 0 {
				m.ExpireFlows(now)
			}
		}
		return len(m.Flows())
	}
	base := records(5 * time.Minute)
	t.Logf("5m0s timeout: %d records", base)
	if n := records(30 * time.Second); n < 10*base {
		t.Errorf("30s timeout: %d records, want at least 10× the 5 min timeout's %d", n, base)
	}
	for _, to := range []time.Duration{2 * time.Minute, 30 * time.Minute} {
		if n := records(to); n != base {
			t.Errorf("%s timeout: %d records, the 5 min timeout %d", to, n, base)
		}
	}
}
