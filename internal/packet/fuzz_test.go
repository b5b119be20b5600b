package packet

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"

	"natpeek/internal/mac"
)

// FuzzDecode fuzzes the frame decoder the capture pipeline runs on every
// LAN frame. Properties:
//
//  1. Decode never panics and always returns a Packet holding the input.
//  2. decode∘encode = id: any fully decoded frame re-serialized from its
//     layer structs (the package's own Marshal methods, the encoder the
//     traffic generator uses) decodes back to identical layers and
//     payload. Raw bytes may differ — checksums are recomputed and
//     trailing garbage past the IP total length is dropped — but nothing
//     the capture pipeline reads may change.
func FuzzDecode(f *testing.F) {
	src := mac.Addr{0x00, 0x1c, 0xb3, 0x01, 0x02, 0x03}
	dst := mac.Addr{0x00, 0x18, 0xf8, 0x0a, 0x0b, 0x0c}
	bld := NewBuilder(src, dst)
	dev := netip.MustParseAddr("192.168.1.23")
	remote := netip.MustParseAddr("203.0.113.7")
	f.Add(bld.UDPv4(dev, netip.MustParseAddr("8.8.8.8"), 33000, 53, 64, []byte("dns-query")))
	f.Add(bld.TCPv4(dev, remote, TCP{SrcPort: 44123, DstPort: 443, Seq: 7, Flags: FlagSYN, Window: 65535}, 64, nil))
	f.Add(bld.TCPv4(remote, dev, TCP{SrcPort: 443, DstPort: 44123, Flags: FlagACK, Window: 65535}, 60, bytes.Repeat([]byte{0xab}, 1446)))
	f.Add(icmpEcho(bld, dev, remote, ICMPEchoRequest, 9, 1, []byte("ping")))
	f.Add(bld.ARPRequest(dev, netip.MustParseAddr("192.168.1.1")))
	// IPv6 UDP frame (hand-assembled; Builder only does v4).
	{
		u := UDP{SrcPort: 5353, DstPort: 5353}
		s6 := netip.MustParseAddr("fe80::1")
		d6 := netip.MustParseAddr("ff02::fb")
		seg := u.Marshal(nil, s6, d6, []byte("mdns"))
		ip := IPv6{NextHeader: ProtoUDP, HopLimit: 255, Src: s6, Dst: d6}
		eth := Ethernet{Dst: dst, Src: src, Type: EtherTypeIPv6}
		f.Add(ip.Marshal(eth.Marshal(nil), seg))
	}
	// Truncated IPv4 header (the short-frame class of crash bugs).
	f.Add([]byte("\x00\x18\xf8\x0a\x0b\x0c\x00\x1c\xb3\x01\x02\x03\x08\x00\x45\x00\x00\x14\x00\x00"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := Decode(raw)
		if p == nil {
			t.Fatal("Decode returned nil packet")
		}
		if !bytes.Equal(p.Raw, raw) || p.Len() != len(raw) {
			t.Fatal("Decode did not retain the raw frame")
		}
		if err != nil {
			return // partial decode: nothing to round-trip
		}
		raw2 := reencode(t, p)
		p2, err := Decode(raw2)
		if err != nil {
			t.Fatalf("re-decode failed: %v\n raw2=%x", err, raw2)
		}
		for _, l := range []struct {
			name string
			a, b any
		}{
			{"eth", p.Eth, p2.Eth},
			{"arp", p.ARP, p2.ARP},
			{"ip4", p.IP4, p2.IP4},
			{"ip6", p.IP6, p2.IP6},
			{"tcp", p.TCP, p2.TCP},
			{"udp", p.UDP, p2.UDP},
			{"icmp", p.ICMP, p2.ICMP},
		} {
			if !reflect.DeepEqual(l.a, l.b) {
				t.Fatalf("%s layer changed across re-encode:\n was %+v\n now %+v", l.name, l.a, l.b)
			}
		}
		if !bytes.Equal(p.Payload, p2.Payload) {
			t.Fatalf("payload changed across re-encode")
		}
	})
}

// reencode serializes a fully decoded packet from its layer structs.
func reencode(t *testing.T, p *Packet) []byte {
	t.Helper()
	b := p.Eth.Marshal(nil)
	switch {
	case p.ARP != nil:
		return p.ARP.Marshal(b)
	case p.IP4 != nil:
		return p.IP4.Marshal(b, reencodeTransport(t, p, p.IP4.Src, p.IP4.Dst))
	case p.IP6 != nil:
		return p.IP6.Marshal(b, reencodeTransport(t, p, p.IP6.Src, p.IP6.Dst))
	}
	t.Fatal("fully decoded packet with no network layer")
	return nil
}

func reencodeTransport(t *testing.T, p *Packet, src, dst netip.Addr) []byte {
	t.Helper()
	switch {
	case p.TCP != nil:
		return p.TCP.Marshal(nil, src, dst, p.Payload)
	case p.UDP != nil:
		return p.UDP.Marshal(nil, src, dst, p.Payload)
	case p.ICMP != nil:
		return p.ICMP.Marshal(nil, p.Payload)
	}
	t.Fatal("fully decoded packet with no transport layer")
	return nil
}
