package packet

import (
	"fmt"
	"net/netip"

	"natpeek/internal/mac"
)

// Packet is a fully decoded frame: the layer stack plus the raw bytes it
// was parsed from. Decode follows gopacket's layered model — each layer is
// parsed in sequence and the first failure stops decoding, leaving the
// successfully parsed prefix available together with the error.
type Packet struct {
	Raw []byte

	Eth  *Ethernet
	ARP  *ARP
	IP4  *IPv4
	IP6  *IPv6
	TCP  *TCP
	UDP  *UDP
	ICMP *ICMPv4

	// Payload is the innermost payload (application data).
	Payload []byte

	// Err records where decoding stopped, if it did.
	Err error
}

// Decode parses an Ethernet frame into its layer stack. It always returns
// a Packet; check Err (also returned) for partial decodes.
func Decode(raw []byte) (*Packet, error) {
	p := &Packet{Raw: raw}
	p.Eth = &Ethernet{}
	rest, err := p.Eth.Unmarshal(raw)
	if err != nil {
		p.Eth = nil
		p.Err = err
		return p, err
	}
	switch p.Eth.Type {
	case EtherTypeARP:
		p.ARP = &ARP{}
		if err := p.ARP.Unmarshal(rest); err != nil {
			p.ARP = nil
			p.Err = err
			return p, err
		}
		return p, nil
	case EtherTypeIPv4:
		p.IP4 = &IPv4{}
		rest, err = p.IP4.Unmarshal(rest)
		if err != nil {
			p.IP4 = nil
			p.Err = err
			return p, err
		}
		return p.decodeTransport(p.IP4.Protocol, p.IP4.Src, p.IP4.Dst, rest)
	case EtherTypeIPv6:
		p.IP6 = &IPv6{}
		rest, err = p.IP6.Unmarshal(rest)
		if err != nil {
			p.IP6 = nil
			p.Err = err
			return p, err
		}
		return p.decodeTransport(p.IP6.NextHeader, p.IP6.Src, p.IP6.Dst, rest)
	default:
		p.Payload = rest
		p.Err = fmt.Errorf("packet: unsupported ethertype %#04x", uint16(p.Eth.Type))
		return p, p.Err
	}
}

func (p *Packet) decodeTransport(proto IPProto, src, dst netip.Addr, rest []byte) (*Packet, error) {
	var err error
	switch proto {
	case ProtoTCP:
		p.TCP = &TCP{}
		p.Payload, err = p.TCP.Unmarshal(rest, src, dst)
		if err != nil {
			p.TCP = nil
		}
	case ProtoUDP:
		p.UDP = &UDP{}
		p.Payload, err = p.UDP.Unmarshal(rest, src, dst)
		if err != nil {
			p.UDP = nil
		}
	case ProtoICMP:
		p.ICMP = &ICMPv4{}
		p.Payload, err = p.ICMP.Unmarshal(rest)
		if err != nil {
			p.ICMP = nil
		}
	default:
		p.Payload = rest
		err = fmt.Errorf("packet: unsupported protocol %v", proto)
	}
	p.Err = err
	return p, err
}

// SrcIP returns the network-layer source address (zero Addr if no IP
// layer decoded).
func (p *Packet) SrcIP() netip.Addr {
	switch {
	case p.IP4 != nil:
		return p.IP4.Src
	case p.IP6 != nil:
		return p.IP6.Src
	}
	return netip.Addr{}
}

// DstIP returns the network-layer destination address.
func (p *Packet) DstIP() netip.Addr {
	switch {
	case p.IP4 != nil:
		return p.IP4.Dst
	case p.IP6 != nil:
		return p.IP6.Dst
	}
	return netip.Addr{}
}

// Proto returns the transport protocol (0 if none decoded).
func (p *Packet) Proto() IPProto {
	switch {
	case p.TCP != nil:
		return ProtoTCP
	case p.UDP != nil:
		return ProtoUDP
	case p.ICMP != nil:
		return ProtoICMP
	}
	return 0
}

// Ports returns the transport src/dst ports (0, 0 for non-TCP/UDP).
func (p *Packet) Ports() (src, dst uint16) {
	switch {
	case p.TCP != nil:
		return p.TCP.SrcPort, p.TCP.DstPort
	case p.UDP != nil:
		return p.UDP.SrcPort, p.UDP.DstPort
	}
	return 0, 0
}

// Len returns the frame's total length in bytes.
func (p *Packet) Len() int { return len(p.Raw) }

// Builder constructs frames layer by layer. The zero value is unusable;
// start from NewBuilder.
type Builder struct {
	eth Ethernet
}

// NewBuilder returns a Builder for frames between the given MACs.
func NewBuilder(src, dst mac.Addr) *Builder {
	return &Builder{eth: Ethernet{Src: src, Dst: dst}}
}

// UDPv4 builds a complete Ethernet+IPv4+UDP frame.
func (bl *Builder) UDPv4(src, dst netip.Addr, sport, dport uint16, ttl uint8, payload []byte) []byte {
	u := UDP{SrcPort: sport, DstPort: dport}
	seg := u.Marshal(nil, src, dst, payload)
	ip := IPv4{TTL: ttl, Protocol: ProtoUDP, Src: src, Dst: dst}
	eth := bl.eth
	eth.Type = EtherTypeIPv4
	b := eth.Marshal(nil)
	return ip.Marshal(b, seg)
}

// TCPv4 builds a complete Ethernet+IPv4+TCP frame.
func (bl *Builder) TCPv4(src, dst netip.Addr, hdr TCP, ttl uint8, payload []byte) []byte {
	seg := hdr.Marshal(nil, src, dst, payload)
	ip := IPv4{TTL: ttl, Protocol: ProtoTCP, Src: src, Dst: dst}
	eth := bl.eth
	eth.Type = EtherTypeIPv4
	b := eth.Marshal(nil)
	return ip.Marshal(b, seg)
}

// ARPRequest builds a who-has ARP request frame.
func (bl *Builder) ARPRequest(senderIP, targetIP netip.Addr) []byte {
	a := ARP{Op: ARPRequest, SenderHW: bl.eth.Src, SenderIP: senderIP, TargetIP: targetIP}
	eth := bl.eth
	eth.Type = EtherTypeARP
	eth.Dst = mac.Addr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	b := eth.Marshal(nil)
	return a.Marshal(b)
}
