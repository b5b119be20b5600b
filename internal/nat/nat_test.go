package nat

import (
	"net/netip"
	"testing"
	"time"

	"natpeek/internal/mac"
	"natpeek/internal/packet"
)

var (
	t0     = time.Date(2012, 10, 1, 0, 0, 0, 0, time.UTC)
	wanIP  = netip.MustParseAddr("203.0.113.5")
	lanA   = netip.MustParseAddr("192.168.1.10")
	lanB   = netip.MustParseAddr("192.168.1.11")
	remote = netip.MustParseAddr("173.194.43.36")
	hwA    = mac.MustParse("a4:b1:97:00:00:0a")
	hwGW   = mac.MustParse("20:4e:7f:00:00:01")
)

func newTable() *Table {
	return New(Config{WANAddr: wanIP})
}

func udpFrame(src netip.Addr, sport uint16) []byte {
	return packet.NewBuilder(hwA, hwGW).UDPv4(src, remote, sport, 53, 64, []byte("q"))
}

func tcpFrame(src netip.Addr, sport uint16) []byte {
	return packet.NewBuilder(hwA, hwGW).TCPv4(src, remote, packet.TCP{SrcPort: sport, DstPort: 443, Flags: packet.FlagSYN}, 64, nil)
}

func TestTranslateOutRewritesSource(t *testing.T) {
	nt := newTable()
	raw := udpFrame(lanA, 5000)
	m, err := nt.TranslateOut(raw, t0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := packet.Decode(raw)
	if err != nil {
		t.Fatalf("rewritten frame invalid: %v", err)
	}
	if p.SrcIP() != wanIP {
		t.Fatalf("src = %v, want WAN", p.SrcIP())
	}
	sp, _ := p.Ports()
	if sp != m.External.Port {
		t.Fatalf("sport = %d, mapping says %d", sp, m.External.Port)
	}
	if p.DstIP() != remote {
		t.Fatal("destination disturbed")
	}
}

func TestTCPTranslateRoundTrip(t *testing.T) {
	nt := newTable()
	out := tcpFrame(lanA, 49000)
	m, err := nt.TranslateOut(out, t0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := packet.Decode(out)
	if err != nil {
		t.Fatalf("rewritten TCP frame invalid: %v", err)
	}
	if p.SrcIP() != wanIP || p.TCP.SrcPort != m.External.Port {
		t.Fatalf("TCP source %v:%d, want %v:%d", p.SrcIP(), p.TCP.SrcPort, wanIP, m.External.Port)
	}
	in, err := nt.Attribute(packet.ProtoTCP, p.TCP.SrcPort)
	if err != nil || in.Addr != lanA || in.Port != 49000 {
		t.Fatalf("WAN port %d attributed to %v, %v; want %v:49000", p.TCP.SrcPort, in, err, lanA)
	}
}

func TestEndpointIndependentMapping(t *testing.T) {
	nt := newTable()
	// Same internal endpoint, two destinations → same external port.
	f1 := packet.NewBuilder(hwA, hwGW).UDPv4(lanA, remote, 6000, 53, 64, nil)
	f2 := packet.NewBuilder(hwA, hwGW).UDPv4(lanA, netip.MustParseAddr("8.8.4.4"), 6000, 123, 64, nil)
	m1, _ := nt.TranslateOut(f1, t0)
	m2, _ := nt.TranslateOut(f2, t0)
	if m1.External != m2.External {
		t.Fatal("mapping not endpoint-independent")
	}
	if m1.Flows != 2 {
		t.Fatalf("flows = %d, want 2", m1.Flows)
	}
	if nt.Size() != 1 {
		t.Fatalf("size = %d", nt.Size())
	}
}

func TestDistinctDevicesGetDistinctPorts(t *testing.T) {
	nt := newTable()
	m1, _ := nt.TranslateOut(udpFrame(lanA, 5000), t0)
	m2, _ := nt.TranslateOut(udpFrame(lanB, 5000), t0)
	if m1.External.Port == m2.External.Port {
		t.Fatal("two devices share an external port")
	}
}

func TestAttribute(t *testing.T) {
	nt := newTable()
	m, _ := nt.TranslateOut(udpFrame(lanA, 5000), t0)
	in, err := nt.Attribute(packet.ProtoUDP, m.External.Port)
	if err != nil {
		t.Fatal(err)
	}
	if in.Addr != lanA || in.Port != 5000 {
		t.Fatalf("attributed to %v", in)
	}
	if _, err := nt.Attribute(packet.ProtoUDP, 1); err == nil {
		t.Fatal("unknown port attributed")
	}
}

func TestUDPMappingExpires(t *testing.T) {
	nt := newTable()
	m, _ := nt.TranslateOut(udpFrame(lanA, 5000), t0)
	if n := nt.Expire(t0.Add(3 * time.Minute)); n != 1 {
		t.Fatalf("expired %d, want 1", n)
	}
	if _, err := nt.Attribute(packet.ProtoUDP, m.External.Port); err == nil {
		t.Fatal("expired mapping still active")
	}
}

func TestTCPOutlivesUDPTimeout(t *testing.T) {
	nt := newTable()
	nt.TranslateOut(tcpFrame(lanA, 49000), t0)
	if n := nt.Expire(t0.Add(10 * time.Minute)); n != 0 {
		t.Fatal("TCP mapping expired at UDP timeout")
	}
	if n := nt.Expire(t0.Add(3 * time.Hour)); n != 1 {
		t.Fatal("TCP mapping never expired")
	}
}

func TestActivityRefreshesMapping(t *testing.T) {
	nt := newTable()
	for i := 0; i < 5; i++ {
		raw := udpFrame(lanA, 5000)
		if _, err := nt.TranslateOut(raw, t0.Add(time.Duration(i)*90*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	// Last use at t0+6m; expiry checks idle time, not age.
	if n := nt.Expire(t0.Add(7 * time.Minute)); n != 0 {
		t.Fatal("active mapping expired")
	}
}

func TestPortExhaustionReclaimsIdle(t *testing.T) {
	nt := New(Config{WANAddr: wanIP, portLo: 40000, portHi: 40004})
	for i := 0; i < 5; i++ {
		if _, err := nt.TranslateOut(udpFrame(lanA, uint16(5000+i)), t0); err != nil {
			t.Fatal(err)
		}
	}
	// Range exhausted, but all mappings are idle by t1 → reclaim works.
	t1 := t0.Add(5 * time.Minute)
	if _, err := nt.TranslateOut(udpFrame(lanB, 7777), t1); err != nil {
		t.Fatalf("no reclaim under exhaustion: %v", err)
	}
	// Immediate exhaustion with live mappings must error.
	nt2 := New(Config{WANAddr: wanIP, portLo: 40000, portHi: 40001})
	nt2.TranslateOut(udpFrame(lanA, 1), t0)
	nt2.TranslateOut(udpFrame(lanA, 2), t0)
	if _, err := nt2.TranslateOut(udpFrame(lanA, 3), t0); err == nil {
		t.Fatal("exhaustion not reported")
	}
}

func TestNonIPv4Rejected(t *testing.T) {
	nt := newTable()
	arp := packet.NewBuilder(hwA, hwGW).ARPRequest(lanA, netip.MustParseAddr("192.168.1.1"))
	if _, err := nt.TranslateOut(arp, t0); err == nil {
		t.Fatal("ARP translated")
	}
}

func TestICMPUnsupported(t *testing.T) {
	nt := newTable()
	eth := packet.Ethernet{Src: hwA, Dst: hwGW, Type: packet.EtherTypeIPv4}
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: lanA, Dst: remote}
	icmp := packet.ICMPv4{Type: packet.ICMPEchoRequest, ID: 1, Seq: 1}
	ping := ip.Marshal(eth.Marshal(nil), icmp.Marshal(nil, nil))
	if _, err := nt.TranslateOut(ping, t0); err == nil {
		t.Fatal("ICMP translated")
	}
}

func TestManyFlowsStayConsistent(t *testing.T) {
	nt := newTable()
	// 200 devices × 3 ports each; every mapping must translate back.
	type probe struct {
		src   netip.Addr
		sport uint16
		ext   uint16
	}
	var probes []probe
	for d := 0; d < 200; d++ {
		src := netip.AddrFrom4([4]byte{192, 168, byte(1 + d/200), byte(10 + d%200)})
		for k := 0; k < 3; k++ {
			sport := uint16(5000 + d*3 + k)
			m, err := nt.TranslateOut(udpFrame(src, sport), t0)
			if err != nil {
				t.Fatal(err)
			}
			probes = append(probes, probe{src, sport, m.External.Port})
		}
	}
	if nt.Size() != 600 {
		t.Fatalf("size = %d", nt.Size())
	}
	seen := map[uint16]bool{}
	for _, pr := range probes {
		if seen[pr.ext] {
			t.Fatalf("external port %d reused", pr.ext)
		}
		seen[pr.ext] = true
		in, err := nt.Attribute(packet.ProtoUDP, pr.ext)
		if err != nil || in.Addr != pr.src || in.Port != pr.sport {
			t.Fatalf("attribution wrong for %d: %v, %v", pr.ext, in, err)
		}
	}
}

func BenchmarkTranslateOut(b *testing.B) {
	nt := newTable()
	pristine := udpFrame(lanA, 5000)
	raw := make([]byte, len(pristine))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// TranslateOut rewrites in place; restore the LAN frame so every
		// iteration hits the same (steady-state) mapping.
		copy(raw, pristine)
		if _, err := nt.TranslateOut(raw, t0); err != nil {
			b.Fatal(err)
		}
	}
}
