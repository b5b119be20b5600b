// Package nat implements the network address translator the paper's title
// points at. From outside the home, every device appears as the gateway's
// single WAN address; the NAT's binding table is exactly the information
// an external observer lacks and the in-home vantage point has. The
// gateway runs this NAT on the forwarding path and the capture pipeline
// reads its reverse mappings to attribute WAN flows back to LAN devices.
//
// The translator is endpoint-independent for mapping ("full-cone" style
// allocation: one external port per internal endpoint, reused across
// destinations) with per-flow connection tracking for expiry — the common
// home-router behaviour.
package nat

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"natpeek/internal/packet"
)

// Errors returned by the translator.
var (
	ErrPortsExhausted = errors.New("nat: external ports exhausted")
	ErrNoMapping      = errors.New("nat: no mapping")
	ErrNotIPv4        = errors.New("nat: not an IPv4 packet")
	ErrUnsupported    = errors.New("nat: unsupported transport")
)

// Endpoint is an (address, port) pair.
type Endpoint struct {
	Addr netip.Addr
	Port uint16
}

func (e Endpoint) String() string { return fmt.Sprintf("%v:%d", e.Addr, e.Port) }

// mappingKey identifies an internal endpoint per protocol.
type mappingKey struct {
	proto packet.IPProto
	in    Endpoint
}

// Mapping is one NAT binding: internal endpoint ↔ external port.
type Mapping struct {
	Proto    packet.IPProto
	Internal Endpoint
	External Endpoint
	Created  time.Time
	LastUsed time.Time
	// Flows counts distinct remote endpoints seen through this mapping.
	Flows int
}

// Table is the translator state. Not safe for concurrent use.
type Table struct {
	wan netip.Addr

	byInternal map[mappingKey]*Mapping
	byExternal map[mappingKey]*Mapping // key.in holds the *external* endpoint
	remotes    map[mappingKey]map[Endpoint]bool

	nextPort  uint16
	portLo    uint16
	portHi    uint16
	allocated int
}

// Idle expiries of a mapping: typical consumer-router values.
const (
	udpTimeout = 2 * time.Minute
	tcpTimeout = 2 * time.Hour
)

// Config tunes the translator.
type Config struct {
	// WANAddr is the gateway's public address.
	WANAddr netip.Addr
	// portLo/portHi bound the external port range (default 32768–60999).
	portLo, portHi uint16
}

// New returns an empty translator.
func New(cfg Config) *Table {
	if cfg.portLo == 0 {
		cfg.portLo = 32768
	}
	if cfg.portHi == 0 {
		cfg.portHi = 60999
	}
	if cfg.portHi <= cfg.portLo {
		panic("nat: invalid port range")
	}
	return &Table{
		wan:        cfg.WANAddr,
		byInternal: make(map[mappingKey]*Mapping),
		byExternal: make(map[mappingKey]*Mapping),
		remotes:    make(map[mappingKey]map[Endpoint]bool),
		nextPort:   cfg.portLo,
		portLo:     cfg.portLo,
		portHi:     cfg.portHi,
	}
}

// WANAddr returns the external address.
func (t *Table) WANAddr() netip.Addr { return t.wan }

// Size returns the number of active mappings.
func (t *Table) Size() int { return len(t.byInternal) }

// TranslateOut rewrites an outbound (LAN→WAN) frame in place: the source
// IP becomes the WAN address and the source port the mapped external
// port. It returns the mapping used. The frame must be Ethernet+IPv4 with
// TCP or UDP.
func (t *Table) TranslateOut(raw []byte, now time.Time) (*Mapping, error) {
	p, err := packet.Decode(raw)
	if err != nil {
		return nil, err
	}
	if p.IP4 == nil {
		return nil, ErrNotIPv4
	}
	sport, dport := p.Ports()
	if p.TCP == nil && p.UDP == nil {
		return nil, ErrUnsupported
	}
	in := Endpoint{Addr: p.IP4.Src, Port: sport}
	remote := Endpoint{Addr: p.IP4.Dst, Port: dport}
	m, err := t.mapOut(p.Proto(), in, remote, now)
	if err != nil {
		return nil, err
	}
	rewrite(raw, p, t.wan, m.External.Port)
	return m, nil
}

// mapOut finds or creates the binding for an internal endpoint.
func (t *Table) mapOut(proto packet.IPProto, in, remote Endpoint, now time.Time) (*Mapping, error) {
	key := mappingKey{proto, in}
	m, ok := t.byInternal[key]
	if !ok {
		port, err := t.allocPort(proto, now)
		if err != nil {
			return nil, err
		}
		m = &Mapping{
			Proto:    proto,
			Internal: in,
			External: Endpoint{Addr: t.wan, Port: port},
			Created:  now,
		}
		t.byInternal[key] = m
		t.byExternal[mappingKey{proto, m.External}] = m
		t.remotes[key] = make(map[Endpoint]bool)
	}
	m.LastUsed = now
	if rs := t.remotes[key]; !rs[remote] {
		rs[remote] = true
		m.Flows++
	}
	return m, nil
}

func (t *Table) allocPort(proto packet.IPProto, now time.Time) (uint16, error) {
	span := int(t.portHi-t.portLo) + 1
	for i := 0; i < span; i++ {
		port := t.nextPort
		t.nextPort++
		if t.nextPort > t.portHi {
			t.nextPort = t.portLo
		}
		if _, taken := t.byExternal[mappingKey{proto, Endpoint{t.wan, port}}]; !taken {
			return port, nil
		}
	}
	// Try reclaiming idle mappings, then retry once.
	if t.Expire(now) > 0 {
		return t.allocPort(proto, now)
	}
	return 0, ErrPortsExhausted
}

// Expire drops mappings idle past their protocol timeout and returns the
// number removed.
func (t *Table) Expire(now time.Time) int {
	n := 0
	for key, m := range t.byInternal {
		timeout := udpTimeout
		if m.Proto == packet.ProtoTCP {
			timeout = tcpTimeout
		}
		if now.Sub(m.LastUsed) >= timeout {
			delete(t.byInternal, key)
			delete(t.byExternal, mappingKey{m.Proto, m.External})
			delete(t.remotes, key)
			n++
		}
	}
	return n
}

// Lookup returns the mapping for an internal endpoint, if any.
func (t *Table) Lookup(proto packet.IPProto, in Endpoint) (*Mapping, error) {
	if m, ok := t.byInternal[mappingKey{proto, in}]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("%w: %v/%v", ErrNoMapping, proto, in)
}

// Attribute answers the "peeking behind the NAT" question in reverse:
// given the external port an outside observer saw, which internal device
// (LAN address) was it? This is what the in-home vantage point adds over
// measuring from the wide area.
func (t *Table) Attribute(proto packet.IPProto, externalPort uint16) (Endpoint, error) {
	if m, ok := t.byExternal[mappingKey{proto, Endpoint{t.wan, externalPort}}]; ok {
		return m.Internal, nil
	}
	return Endpoint{}, fmt.Errorf("%w: port %d", ErrNoMapping, externalPort)
}

// rewrite updates the source address/port in the raw frame and fixes
// all checksums by re-marshaling the transport segment.
func rewrite(raw []byte, p *packet.Packet, addr netip.Addr, port uint16) {
	ip := *p.IP4
	ip.Src = addr
	var seg []byte
	switch {
	case p.TCP != nil:
		tcp := *p.TCP
		tcp.SrcPort = port
		seg = tcp.Marshal(nil, ip.Src, ip.Dst, p.Payload)
	case p.UDP != nil:
		udp := *p.UDP
		udp.SrcPort = port
		seg = udp.Marshal(nil, ip.Src, ip.Dst, p.Payload)
	}
	eth := *p.Eth
	out := eth.Marshal(raw[:0])
	out = ip.Marshal(out, seg)
	if len(out) != len(raw) {
		panic("nat: rewrite changed frame length")
	}
}
