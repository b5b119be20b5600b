package gateway

import (
	"errors"
	"time"

	"natpeek/internal/nat"
	"natpeek/internal/packet"
)

// The forwarding path is the router's data plane: LAN frames are captured
// (while device MACs and private addresses are still visible — the
// "peeking behind the NAT" vantage point), then NAT-translated and put on
// the access link; WAN frames reverse the trip. The measurement pipeline
// taps the LAN side, which is exactly why the study could attribute
// traffic per device when an outside observer could not.

// ErrNoNAT reports a forwarding call on an Env without a NAT table.
var ErrNoNAT = errors.New("gateway: env has no NAT table")

// ErrLinkDown reports a drop because the access link rejected the frame.
var ErrLinkDown = errors.New("gateway: access link dropped frame")

// ForwardUp processes one LAN→WAN frame: passive capture first (pre-NAT),
// then source translation, then transmission on the uplink. deliver (may
// be nil) receives the translated frame when it reaches the WAN side.
func (a *Agent) ForwardUp(raw []byte, now time.Time, deliver func(wireFrame []byte, at time.Time)) error {
	if !a.running {
		return errors.New("gateway: powered off")
	}
	a.HandleFrame(raw, true, now)
	if a.env.NAT == nil {
		return ErrNoNAT
	}
	// Translate a copy: the caller's buffer stays LAN-addressed.
	wire := append([]byte(nil), raw...)
	if _, err := a.env.NAT.TranslateOut(wire, now); err != nil {
		return err
	}
	if a.env.Link == nil {
		if deliver != nil {
			deliver(wire, now)
		}
		return nil
	}
	ok := a.env.Link.Up.Send(len(wire), func(at time.Time) {
		if deliver != nil {
			deliver(wire, at)
		}
	})
	if !ok {
		return ErrLinkDown
	}
	return nil
}

// AttributeExternal answers the NAT-opacity question from the inside:
// which LAN endpoint owns traffic an outside observer saw on this
// external port? (§1: without the in-home vantage point, "traffic coming
// from any device in a home network appears to all be coming from a
// single device".)
func (a *Agent) AttributeExternal(proto string, externalPort uint16) (nat.Endpoint, error) {
	if a.env.NAT == nil {
		return nat.Endpoint{}, ErrNoNAT
	}
	p := packet.ProtoTCP
	if proto == "udp" {
		p = packet.ProtoUDP
	}
	return a.env.NAT.Attribute(p, externalPort)
}
