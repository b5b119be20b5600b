package wifi

import (
	"testing"

	"natpeek/internal/mac"
	"natpeek/internal/rng"
)

func ap(b Band, ch int, rssi int, n uint32) AP {
	return AP{BSSID: mac.FromOUI(0x0018F8, n), SSID: "neighbor", Band: b, Channel: ch, RSSI: rssi}
}

func TestDefaultChannelsMatchPaper(t *testing.T) {
	if DefaultChannel(Band24) != 11 {
		t.Fatal("2.4 GHz default must be channel 11")
	}
	if DefaultChannel(Band5) != 36 {
		t.Fatal("5 GHz default must be channel 36")
	}
}

func TestOverlaps(t *testing.T) {
	cases := []struct {
		b      Band
		c1, c2 int
		want   bool
	}{
		{Band24, 1, 1, true},
		{Band24, 1, 4, true},
		{Band24, 1, 6, false},
		{Band24, 6, 11, false},
		{Band24, 11, 8, true},
		{Band5, 36, 36, true},
		{Band5, 36, 40, false},
	}
	for _, c := range cases {
		if Overlaps(c.b, c.c1, c.c2) != c.want {
			t.Errorf("Overlaps(%v, %d, %d) != %v", c.b, c.c1, c.c2, c.want)
		}
	}
}

func TestVisibleOnFiltersBandAndChannel(t *testing.T) {
	e := NewEnvironment()
	e.AddAP(ap(Band24, 11, -60, 1))
	e.AddAP(ap(Band24, 6, -50, 2))
	e.AddAP(ap(Band5, 36, -55, 3))
	e.AddAP(ap(Band24, 11, -40, 4))
	vis := e.VisibleOn(Band24, 11)
	if len(vis) != 2 {
		t.Fatalf("visible = %d, want 2", len(vis))
	}
	// Sorted by RSSI descending.
	if vis[0].RSSI < vis[1].RSSI {
		t.Fatal("not sorted by signal strength")
	}
	if len(e.VisibleOn(Band5, 36)) != 1 {
		t.Fatal("5 GHz scan wrong")
	}
}

func TestInterferersIncludeOverlapping(t *testing.T) {
	e := NewEnvironment()
	e.AddAP(ap(Band24, 9, -60, 1))  // overlaps 11
	e.AddAP(ap(Band24, 6, -60, 2))  // does not overlap 11
	e.AddAP(ap(Band24, 11, -60, 3)) // co-channel
	if n := len(e.InterferersOn(Band24, 11)); n != 2 {
		t.Fatalf("interferers = %d, want 2", n)
	}
	// 5 GHz: only exact channel.
	e5 := NewEnvironment()
	e5.AddAP(ap(Band5, 36, -60, 1))
	e5.AddAP(ap(Band5, 40, -60, 2))
	if n := len(e5.InterferersOn(Band5, 36)); n != 1 {
		t.Fatalf("5 GHz interferers = %d, want 1", n)
	}
}

func TestAssociateDisassociate(t *testing.T) {
	r := NewRadio(Band24, NewEnvironment(), nil)
	hw := mac.FromOUI(0x001CB3, 1)
	r.Associate(hw)
	if !r.clients[hw] || r.ClientCount() != 1 {
		t.Fatal("associate failed")
	}
	r.Associate(hw) // idempotent
	if r.ClientCount() != 1 {
		t.Fatal("double association counted twice")
	}
	r.Disassociate(hw)
	if r.clients[hw] || r.ClientCount() != 0 {
		t.Fatal("disassociate failed")
	}
}

func TestClientsSorted(t *testing.T) {
	r := NewRadio(Band24, NewEnvironment(), nil)
	for i := 5; i > 0; i-- {
		r.Associate(mac.FromOUI(0x001CB3, uint32(i)))
	}
	cl := r.Clients()
	for i := 1; i < len(cl); i++ {
		if cl[i-1].String() >= cl[i].String() {
			t.Fatal("clients not sorted")
		}
	}
}

func TestScanSeesOwnChannelOnly(t *testing.T) {
	e := NewEnvironment()
	e.AddAP(ap(Band24, 11, -60, 1))
	e.AddAP(ap(Band24, 1, -60, 2))
	r := NewRadio(Band24, e, nil)
	res := r.Scan()
	if res.Channel != 11 || len(res.VisibleAPs) != 1 {
		t.Fatalf("scan result %+v", res)
	}
}

func TestScanCanDisassociateClients(t *testing.T) {
	r := NewRadio(Band24, NewEnvironment(), rng.New(3))
	for i := 0; i < 50; i++ {
		r.Associate(mac.FromOUI(0x001CB3, uint32(i)))
	}
	dropped := 0
	for s := 0; s < 100; s++ {
		before := r.ClientCount()
		res := r.Scan()
		if before-r.ClientCount() != res.ClientsDropped {
			t.Fatalf("scan reports %d drops, radio lost %d clients", res.ClientsDropped, before-r.ClientCount())
		}
		dropped += res.ClientsDropped
		// Re-associate for the next round.
		for i := 0; i < 50; i++ {
			r.Associate(mac.FromOUI(0x001CB3, uint32(i)))
		}
	}
	// 100 scans × 50 clients × 2% ≈ 100 expected drops.
	if dropped < 50 || dropped > 160 {
		t.Fatalf("scan-induced drops = %d, want ≈100", dropped)
	}
}

func TestScanWithoutRngNeverDrops(t *testing.T) {
	r := NewRadio(Band5, NewEnvironment(), nil)
	r.Associate(mac.FromOUI(0x001CB3, 1))
	for i := 0; i < 100; i++ {
		if res := r.Scan(); res.ClientsDropped != 0 {
			t.Fatal("deterministic radio dropped a client")
		}
	}
}

func TestBandString(t *testing.T) {
	if Band24.String() != "2.4GHz" || Band5.String() != "5GHz" {
		t.Fatal("band names wrong")
	}
}
