package packet

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"

	"natpeek/internal/mac"
)

var (
	srcMAC = mac.MustParse("a4:b1:97:00:00:01")
	dstMAC = mac.MustParse("20:4e:7f:00:00:01")
	srcIP  = netip.MustParseAddr("192.168.1.10")
	dstIP  = netip.MustParseAddr("8.8.8.8")
	srcIP6 = netip.MustParseAddr("fd00::10")
	dstIP6 = netip.MustParseAddr("2001:db8::1")
)

func TestChecksumRFC1071Example(t *testing.T) {
	// Classic example from RFC 1071 §3.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if cs := Checksum(b); cs != ^uint16(0xddf2) {
		t.Fatalf("checksum = %04x", cs)
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0x01}) != ^uint16(0x0100) {
		t.Fatal("odd-length padding wrong")
	}
}

func TestChecksumSelfVerifies(t *testing.T) {
	if err := quick.Check(func(data []byte) bool {
		if len(data) < 4 {
			return true
		}
		data[2], data[3] = 0, 0
		cs := Checksum(data)
		data[2], data[3] = byte(cs>>8), byte(cs)
		return Checksum(data) == 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{Src: srcMAC, Dst: dstMAC, Type: EtherTypeIPv4}
	b := e.Marshal(nil)
	b = append(b, 0xde, 0xad)
	var got Ethernet
	rest, err := got.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("got %+v want %+v", got, e)
	}
	if !bytes.Equal(rest, []byte{0xde, 0xad}) {
		t.Fatal("payload wrong")
	}
}

func TestEthernetTruncated(t *testing.T) {
	var e Ethernet
	if _, err := e.Unmarshal(make([]byte, 13)); err == nil {
		t.Fatal("no error for 13-byte frame")
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := ARP{Op: ARPReply, SenderHW: srcMAC, SenderIP: srcIP, TargetHW: dstMAC, TargetIP: netip.MustParseAddr("192.168.1.1")}
	b := a.Marshal(nil)
	var got ARP
	if err := got.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("got %+v want %+v", got, a)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	payload := []byte("hello home network")
	ip := IPv4{TOS: 0x10, ID: 0x1234, TTL: 64, Protocol: ProtoUDP, Src: srcIP, Dst: dstIP}
	b := ip.Marshal(nil, payload)
	var got IPv4
	rest, err := got.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != srcIP || got.Dst != dstIP || got.TTL != 64 || got.ID != 0x1234 || got.Protocol != ProtoUDP {
		t.Fatalf("got %+v", got)
	}
	if !bytes.Equal(rest, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestIPv4ChecksumRejected(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: ProtoUDP, Src: srcIP, Dst: dstIP}
	b := ip.Marshal(nil, nil)
	b[8] ^= 0xff // corrupt TTL
	var got IPv4
	if _, err := got.Unmarshal(b); err == nil {
		t.Fatal("corrupted header accepted")
	}
}

func TestIPv4TotalLengthTrims(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: ProtoUDP, Src: srcIP, Dst: dstIP}
	b := ip.Marshal(nil, []byte{1, 2, 3})
	b = append(b, 0xee, 0xee) // trailing ethernet padding
	var got IPv4
	rest, err := got.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 3 {
		t.Fatalf("payload %d bytes, want 3", len(rest))
	}
}

func TestIPv4BadVersion(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: ProtoUDP, Src: srcIP, Dst: dstIP}
	b := ip.Marshal(nil, nil)
	b[0] = 0x65 // version 6
	var got IPv4
	if _, err := got.Unmarshal(b); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestIPv4Options(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: ProtoTCP, Src: srcIP, Dst: dstIP, Options: []byte{1, 1, 1, 1}}
	b := ip.Marshal(nil, []byte("x"))
	var got IPv4
	rest, err := got.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Options, []byte{1, 1, 1, 1}) {
		t.Fatalf("options = %v", got.Options)
	}
	if string(rest) != "x" {
		t.Fatal("payload wrong with options")
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	payload := []byte("v6 payload")
	ip := IPv6{TrafficClass: 7, FlowLabel: 0xabcde, NextHeader: ProtoTCP, HopLimit: 60, Src: srcIP6, Dst: dstIP6}
	b := ip.Marshal(nil, payload)
	var got IPv6
	rest, err := got.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != ip {
		t.Fatalf("got %+v want %+v", got, ip)
	}
	if !bytes.Equal(rest, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	payload := []byte("dns query bytes")
	u := UDP{SrcPort: 53412, DstPort: 53}
	b := u.Marshal(nil, srcIP, dstIP, payload)
	var got UDP
	rest, err := got.Unmarshal(b, srcIP, dstIP)
	if err != nil {
		t.Fatal(err)
	}
	if got != u {
		t.Fatalf("got %+v", got)
	}
	if !bytes.Equal(rest, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestUDPChecksumCoversAddresses(t *testing.T) {
	u := UDP{SrcPort: 1, DstPort: 2}
	b := u.Marshal(nil, srcIP, dstIP, []byte("x"))
	var got UDP
	// Verifying against different addresses must fail (pseudo-header).
	if _, err := got.Unmarshal(b, srcIP, netip.MustParseAddr("9.9.9.9")); err == nil {
		t.Fatal("checksum ignored pseudo-header")
	}
}

func TestUDPv6Checksum(t *testing.T) {
	u := UDP{SrcPort: 5000, DstPort: 53}
	b := u.Marshal(nil, srcIP6, dstIP6, []byte("six"))
	var got UDP
	if _, err := got.Unmarshal(b, srcIP6, dstIP6); err != nil {
		t.Fatal(err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	payload := []byte("GET / HTTP/1.1\r\n")
	tc := TCP{SrcPort: 49152, DstPort: 80, Seq: 1000, Ack: 2000, Flags: FlagACK | FlagPSH, Window: 65535}
	b := tc.Marshal(nil, srcIP, dstIP, payload)
	var got TCP
	rest, err := got.Unmarshal(b, srcIP, dstIP)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 49152 || got.DstPort != 80 || got.Seq != 1000 || got.Ack != 2000 || got.Flags != FlagACK|FlagPSH {
		t.Fatalf("got %+v", got)
	}
	if !bytes.Equal(rest, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestTCPCorruptPayloadRejected(t *testing.T) {
	tc := TCP{SrcPort: 1, DstPort: 2, Flags: FlagSYN}
	b := tc.Marshal(nil, srcIP, dstIP, []byte("abcd"))
	b[len(b)-1] ^= 0xff
	var got TCP
	if _, err := got.Unmarshal(b, srcIP, dstIP); err == nil {
		t.Fatal("corrupt payload accepted")
	}
}

func TestICMPRoundTrip(t *testing.T) {
	ic := ICMPv4{Type: ICMPEchoRequest, ID: 77, Seq: 3}
	b := ic.Marshal(nil, []byte("ping"))
	var got ICMPv4
	rest, err := got.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != ic {
		t.Fatalf("got %+v", got)
	}
	if string(rest) != "ping" {
		t.Fatal("payload mismatch")
	}
}

func TestDecodeUDPStack(t *testing.T) {
	bl := NewBuilder(srcMAC, dstMAC)
	raw := bl.UDPv4(srcIP, dstIP, 40000, 53, 64, []byte("query"))
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.Eth == nil || p.IP4 == nil || p.UDP == nil {
		t.Fatal("layers missing")
	}
	if p.Eth.Src != srcMAC || p.SrcIP() != srcIP || p.DstIP() != dstIP {
		t.Fatal("addresses wrong")
	}
	if sp, dp := p.Ports(); sp != 40000 || dp != 53 {
		t.Fatalf("ports %d,%d", sp, dp)
	}
	if p.Proto() != ProtoUDP {
		t.Fatal("proto wrong")
	}
	if string(p.Payload) != "query" {
		t.Fatal("payload wrong")
	}
	if p.Len() != len(raw) {
		t.Fatal("Len wrong")
	}
}

func TestDecodeTCPStack(t *testing.T) {
	bl := NewBuilder(srcMAC, dstMAC)
	raw := bl.TCPv4(srcIP, dstIP, TCP{SrcPort: 50000, DstPort: 443, Flags: FlagSYN}, 64, nil)
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.TCP == nil || p.TCP.Flags != FlagSYN {
		t.Fatal("TCP layer wrong")
	}
}

// icmpEcho builds an Ethernet+IPv4+ICMP echo frame with TTL 64.
func icmpEcho(bl *Builder, src, dst netip.Addr, typ uint8, id, seq uint16, payload []byte) []byte {
	ic := ICMPv4{Type: typ, ID: id, Seq: seq}
	ip := IPv4{TTL: 64, Protocol: ProtoICMP, Src: src, Dst: dst}
	eth := bl.eth
	eth.Type = EtherTypeIPv4
	return ip.Marshal(eth.Marshal(nil), ic.Marshal(nil, payload))
}

func TestDecodeICMPStack(t *testing.T) {
	bl := NewBuilder(srcMAC, dstMAC)
	raw := icmpEcho(bl, srcIP, dstIP, ICMPEchoRequest, 1, 2, []byte("x"))
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.ICMP == nil || p.ICMP.Type != ICMPEchoRequest {
		t.Fatal("ICMP layer wrong")
	}
}

func TestDecodeARPStack(t *testing.T) {
	bl := NewBuilder(srcMAC, dstMAC)
	raw := bl.ARPRequest(srcIP, netip.MustParseAddr("192.168.1.1"))
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.ARP == nil || p.ARP.Op != ARPRequest {
		t.Fatal("ARP layer wrong")
	}
	if p.Eth.Dst != (mac.Addr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) {
		t.Fatal("ARP request not broadcast")
	}
}

func TestDecodePartialKeepsPrefix(t *testing.T) {
	bl := NewBuilder(srcMAC, dstMAC)
	raw := bl.UDPv4(srcIP, dstIP, 1, 2, 64, []byte("abc"))
	// Corrupt the UDP checksum: Ethernet and IPv4 should still decode.
	raw[len(raw)-1] ^= 0xff
	p, err := Decode(raw)
	if err == nil {
		t.Fatal("expected error")
	}
	if p.Eth == nil || p.IP4 == nil {
		t.Fatal("lower layers lost")
	}
	if p.UDP != nil {
		t.Fatal("bad UDP layer kept")
	}
	if p.Err == nil {
		t.Fatal("Err not recorded")
	}
}

func TestDecodeGarbage(t *testing.T) {
	if err := quick.Check(func(raw []byte) bool {
		p, _ := Decode(raw) // must not panic
		return p != nil
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeMutatedFramesNeverPanic(t *testing.T) {
	bl := NewBuilder(srcMAC, dstMAC)
	base := bl.TCPv4(srcIP, dstIP, TCP{SrcPort: 1, DstPort: 2, Flags: FlagACK}, 64, []byte("payload"))
	for i := 0; i < len(base); i++ {
		for _, bit := range []byte{0x01, 0x80, 0xff} {
			raw := append([]byte(nil), base...)
			raw[i] ^= bit
			Decode(raw)
		}
	}
	// Truncations too.
	for n := 0; n <= len(base); n++ {
		Decode(base[:n])
	}
}

func TestIPv6DecodeStack(t *testing.T) {
	u := UDP{SrcPort: 1000, DstPort: 2000}
	seg := u.Marshal(nil, srcIP6, dstIP6, []byte("v6"))
	ip := IPv6{NextHeader: ProtoUDP, HopLimit: 64, Src: srcIP6, Dst: dstIP6}
	eth := Ethernet{Src: srcMAC, Dst: dstMAC, Type: EtherTypeIPv6}
	raw := ip.Marshal(eth.Marshal(nil), seg)
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.IP6 == nil || p.UDP == nil || string(p.Payload) != "v6" {
		t.Fatalf("v6 stack decode failed: %+v", p)
	}
	if p.SrcIP() != srcIP6 {
		t.Fatal("v6 SrcIP wrong")
	}
}

func BenchmarkBuildUDPv4(b *testing.B) {
	bl := NewBuilder(srcMAC, dstMAC)
	payload := make([]byte, 1200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = bl.UDPv4(srcIP, dstIP, 40000, 53, 64, payload)
	}
}

func BenchmarkDecodeTCPv4(b *testing.B) {
	bl := NewBuilder(srcMAC, dstMAC)
	raw := bl.TCPv4(srcIP, dstIP, TCP{SrcPort: 50000, DstPort: 443, Flags: FlagACK}, 64, make([]byte, 1400))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}
