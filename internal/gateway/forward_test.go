package gateway

import (
	"net/netip"
	"testing"
	"time"

	"natpeek/internal/mac"
	"natpeek/internal/nat"
	"natpeek/internal/packet"
)

// forwardFixture adds a NAT to the standard fixture.
func forwardFixture(t *testing.T) *fixture {
	f := newFixture(t, true)
	f.env.NAT = nat.New(nat.Config{WANAddr: netip.MustParseAddr("203.0.113.5")})
	f.agent.PowerOn(f.sched)
	return f
}

var (
	fwdDev    = netip.MustParseAddr("192.168.1.10")
	fwdDevHW  = "a4:b1:97:00:00:0a"
	fwdRemote = netip.MustParseAddr("173.194.43.36")
)

func lanFrame(f *fixture, sport uint16, n int) []byte {
	return packet.NewBuilder(mac.MustParse(fwdDevHW), mac.MustParse("20:4e:7f:00:00:01")).TCPv4(
		fwdDev, fwdRemote,
		packet.TCP{SrcPort: sport, DstPort: 443, Flags: packet.FlagACK}, 64, make([]byte, n))
}

func TestForwardUpTranslatesAndCaptures(t *testing.T) {
	f := forwardFixture(t)
	var wire []byte
	err := f.agent.ForwardUp(lanFrame(f, 5000, 100), f.clk.Now(), func(b []byte, at time.Time) {
		wire = b
	})
	if err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(time.Second)
	if wire == nil {
		t.Fatal("frame never reached the WAN side")
	}
	p, err := packet.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if p.SrcIP().String() != "203.0.113.5" {
		t.Fatalf("wire src = %v, want WAN address", p.SrcIP())
	}
	// The LAN-side capture recorded the device, not the WAN address.
	devs := f.agent.Monitor().Devices()
	if len(devs) != 1 {
		t.Fatalf("captured devices = %d", len(devs))
	}
}

func TestAttributeExternal(t *testing.T) {
	f := forwardFixture(t)
	var wire []byte
	f.agent.ForwardUp(lanFrame(f, 6000, 10), f.clk.Now(), func(b []byte, _ time.Time) { wire = b })
	f.clk.Advance(time.Second)
	p, _ := packet.Decode(wire)
	ep, err := f.agent.AttributeExternal("tcp", p.TCP.SrcPort)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Addr != fwdDev || ep.Port != 6000 {
		t.Fatalf("attributed to %v", ep)
	}
	if _, err := f.agent.AttributeExternal("udp", p.TCP.SrcPort); err == nil {
		t.Fatal("wrong-protocol attribution succeeded")
	}
}

func TestForwardWithoutNAT(t *testing.T) {
	f := newFixture(t, true)
	f.agent.PowerOn(f.sched)
	if err := f.agent.ForwardUp(lanFrame(f, 5000, 10), f.clk.Now(), nil); err != ErrNoNAT {
		t.Fatalf("err = %v", err)
	}
}

func TestForwardWhilePoweredOff(t *testing.T) {
	f := forwardFixture(t)
	f.agent.PowerOff(f.clk.Now())
	if err := f.agent.ForwardUp(lanFrame(f, 5000, 10), f.clk.Now(), nil); err == nil {
		t.Fatal("forwarded while off")
	}
}

func TestForwardDuringLinkOutage(t *testing.T) {
	f := forwardFixture(t)
	f.env.Link.SetOutage(true)
	err := f.agent.ForwardUp(lanFrame(f, 5000, 10), f.clk.Now(), nil)
	if err != ErrLinkDown {
		t.Fatalf("err = %v", err)
	}
}
