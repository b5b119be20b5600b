package trafficgen

import (
	"net/netip"
	"time"

	"natpeek/internal/dns"
	"natpeek/internal/mac"
	"natpeek/internal/packet"
	"natpeek/internal/rng"
)

// Frame is one raw Ethernet frame with its capture direction and time,
// produced by frame mode for the capture pipeline.
type Frame struct {
	Raw []byte
	Up  bool // LAN → WAN
	At  time.Time
}

// FrameOpts controls frame emission.
type FrameOpts struct {
	// GatewayMAC is the router's LAN-side address.
	GatewayMAC mac.Addr
	// DeviceIP is the LAN address of the flow's device.
	DeviceIP netip.Addr
	// ResolverIP is the upstream DNS server (default 8.8.8.8).
	ResolverIP netip.Addr
	// MaxDataPackets bounds emitted data frames per flow (default 40);
	// byte counts are preserved by inflating the last packets' reported
	// size only up to the MTU, so totals are approximate at small caps.
	MaxDataPackets int
}

// mtu bounds the size of a data frame.
const mtu = 1500

// FlowFrames is a rendered flow, with the rng-drawn connection identity
// exposed so callers (the verify harness) can predict the exact flow
// keys the capture pipeline will build from these frames.
type FlowFrames struct {
	// DNS is the lookup exchange: a UDP flow device:DPort → resolver:53.
	DNS []Frame
	// TCP is the handshake, data, and FIN: device:SPort → Remote:443.
	TCP []Frame
	// Remote is the server address the flow talks to.
	Remote netip.Addr
	// SPort is the TCP client port, DPort the DNS client port.
	SPort, DPort uint16
}

// FramesForFlow renders a FlowSpec as a realistic frame sequence: a DNS
// lookup + response (so the capture's sniffer learns the IP→domain
// binding), a TCP handshake, data packets in both directions, and a FIN.
// It is used where the real capture path must be exercised end to end.
func FramesForFlow(f FlowSpec, opts FrameOpts, rnd *rng.Stream) []Frame {
	ff := RenderFlow(f, opts, rnd)
	return append(ff.DNS, ff.TCP...)
}

// RenderFlow is FramesForFlow with the frames split by flow and the
// connection identity (remote address, ports) returned alongside.
func RenderFlow(f FlowSpec, opts FrameOpts, rnd *rng.Stream) FlowFrames {
	if opts.MaxDataPackets <= 0 {
		opts.MaxDataPackets = 40
	}
	if !opts.ResolverIP.IsValid() {
		opts.ResolverIP = netip.MustParseAddr("8.8.8.8")
	}
	remote := deriveRemoteIP(f.Domain, rnd)
	devHW := f.Device.HW
	gw := opts.GatewayMAC
	devIP := opts.DeviceIP

	ff := FlowFrames{Remote: remote}
	at := f.Start
	bldUp := packet.NewBuilder(devHW, gw)
	bldDown := packet.NewBuilder(gw, devHW)

	// DNS query + response.
	qid := uint16(rnd.Uint64())
	ff.DPort = uint16(30000 + rnd.Intn(20000))
	q := dns.NewQuery(qid, f.Domain, dns.TypeA)
	ff.DNS = append(ff.DNS, Frame{bldUp.UDPv4(devIP, opts.ResolverIP, ff.DPort, 53, 64, q.Marshal()), true, at})
	resp := dns.NewQuery(qid, f.Domain, dns.TypeA).Answer(dns.RR{
		Name: f.Domain, Type: dns.TypeA, Class: dns.ClassIN, TTL: 300, Addr: remote,
	})
	at = at.Add(30 * time.Millisecond)
	ff.DNS = append(ff.DNS, Frame{bldDown.UDPv4(opts.ResolverIP, devIP, 53, ff.DPort, 60, resp.Marshal()), false, at})

	// TCP handshake.
	ff.SPort = uint16(40000 + rnd.Intn(20000))
	sport := ff.SPort
	seq := uint32(rnd.Uint64())
	at = at.Add(10 * time.Millisecond)
	var out []Frame
	out = append(out, Frame{bldUp.TCPv4(devIP, remote, packet.TCP{
		SrcPort: sport, DstPort: 443, Seq: seq, Flags: packet.FlagSYN, Window: 65535}, 64, nil), true, at})
	at = at.Add(20 * time.Millisecond)
	out = append(out, Frame{bldDown.TCPv4(remote, devIP, packet.TCP{
		SrcPort: 443, DstPort: sport, Seq: 1, Ack: seq + 1,
		Flags: packet.FlagSYN | packet.FlagACK, Window: 65535}, 60, nil), false, at})

	// Data: split volumes across bounded packet counts.
	span := f.End.Sub(f.Start)
	if span <= 0 {
		span = time.Minute
	}
	upLeft, downLeft := f.UpBytes, f.DownBytes
	nPkts := opts.MaxDataPackets
	payload := mtu - 54 // eth+ip+tcp headers
	for i := 0; i < nPkts && (upLeft > 0 || downLeft > 0); i++ {
		at = f.Start.Add(time.Duration(float64(span) * float64(i+1) / float64(nPkts+1)))
		if downLeft > 0 {
			sz := int64(payload)
			if sz > downLeft {
				sz = downLeft
			}
			downLeft -= sz
			out = append(out, Frame{bldDown.TCPv4(remote, devIP, packet.TCP{
				SrcPort: 443, DstPort: sport, Flags: packet.FlagACK, Window: 65535}, 60,
				make([]byte, sz)), false, at})
		}
		if upLeft > 0 {
			sz := int64(payload)
			if sz > upLeft {
				sz = upLeft
			}
			upLeft -= sz
			out = append(out, Frame{bldUp.TCPv4(devIP, remote, packet.TCP{
				SrcPort: sport, DstPort: 443, Flags: packet.FlagACK, Window: 65535}, 64,
				make([]byte, sz)), true, at})
		}
	}

	// FIN.
	out = append(out, Frame{bldUp.TCPv4(devIP, remote, packet.TCP{
		SrcPort: sport, DstPort: 443, Flags: packet.FlagFIN | packet.FlagACK, Window: 65535}, 64, nil), true, f.End})
	ff.TCP = out
	return ff
}

// deriveRemoteIP maps a domain to a stable pseudo server address in
// TEST-NET-3 space extended across 203.0.0.0/16.
func deriveRemoteIP(domain string, rnd *rng.Stream) netip.Addr {
	h := uint32(2166136261)
	for i := 0; i < len(domain); i++ {
		h = (h ^ uint32(domain[i])) * 16777619
	}
	return netip.AddrFrom4([4]byte{203, 0, byte(h >> 8), byte(h)})
}
