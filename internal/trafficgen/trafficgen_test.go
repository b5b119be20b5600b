package trafficgen

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"natpeek/internal/anonymize"
	"natpeek/internal/capture"
	"natpeek/internal/domains"
	"natpeek/internal/geo"
	"natpeek/internal/household"
	"natpeek/internal/mac"
	"natpeek/internal/rng"
	"natpeek/internal/stats"
)

var (
	root  = rng.New(7)
	day0  = time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	usCty = func() geo.Country { c, _ := geo.Lookup("US"); return c }()
)

func usHome(idx int) *household.Profile {
	return household.Generate(usCty, idx, root)
}

func allDay() []household.Interval {
	return []household.Interval{{Start: day0, End: day0.Add(24 * time.Hour)}}
}

// genDays runs the generator over several homes and days and pools flows.
func genDays(homes, days int) []FlowSpec {
	var flows []FlowSpec
	for h := 0; h < homes; h++ {
		g := New(usHome(h))
		for d := 0; d < days; d++ {
			day := day0.Add(time.Duration(d) * 24 * time.Hour)
			online := []household.Interval{{Start: day, End: day.Add(24 * time.Hour)}}
			flows = append(flows, g.GenerateDay(day, online).Flows...)
		}
	}
	return flows
}

func TestDeterministic(t *testing.T) {
	g1 := New(usHome(0))
	g2 := New(usHome(0))
	d1 := g1.GenerateDay(day0, allDay())
	d2 := g2.GenerateDay(day0, allDay())
	if len(d1.Flows) != len(d2.Flows) || len(d1.Minutes) != len(d2.Minutes) {
		t.Fatal("generation not deterministic")
	}
	for i := range d1.Flows {
		if d1.Flows[i].Domain != d2.Flows[i].Domain || d1.Flows[i].DownBytes != d2.Flows[i].DownBytes {
			t.Fatalf("flow %d differs", i)
		}
	}
}

func TestOfflineDayProducesNothing(t *testing.T) {
	g := New(usHome(1))
	d := g.GenerateDay(day0, nil)
	if len(d.Flows) != 0 || len(d.Minutes) != 0 {
		t.Fatal("offline day generated traffic")
	}
}

func TestFlowsWithinOnlineWindows(t *testing.T) {
	g := New(usHome(2))
	online := []household.Interval{{Start: day0.Add(18 * time.Hour), End: day0.Add(23 * time.Hour)}}
	d := g.GenerateDay(day0, online)
	for _, f := range d.Flows {
		if f.Start.Before(online[0].Start) || !f.Start.Before(online[0].End) {
			t.Fatalf("flow starts outside online window: %v", f.Start)
		}
	}
}

func TestVolumesNonNegativeAndConsistent(t *testing.T) {
	for _, f := range genDays(5, 2) {
		if f.UpBytes < 0 || f.DownBytes < 0 || f.Conns < 1 {
			t.Fatalf("bad flow %+v", f)
		}
		if !f.End.After(f.Start) {
			t.Fatalf("non-positive flow span %+v", f)
		}
	}
}

func TestDominantDeviceShare(t *testing.T) {
	// Fig. 17: the top device carries ≈60–65% of home traffic on average.
	var shares []float64
	for h := 0; h < 30; h++ {
		g := New(usHome(h))
		byDev := map[mac.Addr]float64{}
		for d := 0; d < 7; d++ {
			day := day0.Add(time.Duration(d) * 24 * time.Hour)
			dt := g.GenerateDay(day, []household.Interval{{Start: day, End: day.Add(24 * time.Hour)}})
			for _, f := range dt.Flows {
				byDev[f.Device.HW] += float64(f.UpBytes + f.DownBytes)
			}
		}
		if len(byDev) < 2 {
			continue
		}
		var vols []float64
		for _, v := range byDev {
			vols = append(vols, v)
		}
		s := stats.Share(vols)
		shares = append(shares, s[0])
	}
	mean := stats.Mean(shares)
	if mean < 0.45 || mean > 0.85 {
		t.Fatalf("mean top-device share = %.2f, want ≈0.6", mean)
	}
}

func TestDominantDomainVolumeVsConnections(t *testing.T) {
	// Fig. 19: top domain by volume ≈38% of bytes but ≲14% of conns.
	var volShares, connShares []float64
	for h := 0; h < 25; h++ {
		g := New(usHome(h))
		vol := map[string]float64{}
		conns := map[string]float64{}
		var volTot, connTot float64
		for d := 0; d < 7; d++ {
			day := day0.Add(time.Duration(d) * 24 * time.Hour)
			dt := g.GenerateDay(day, []household.Interval{{Start: day, End: day.Add(24 * time.Hour)}})
			for _, f := range dt.Flows {
				b := float64(f.UpBytes + f.DownBytes)
				vol[f.Domain] += b
				volTot += b
				conns[f.Domain] += float64(f.Conns)
				connTot += float64(f.Conns)
			}
		}
		top, topV := "", 0.0
		for d, v := range vol {
			if v > topV {
				top, topV = d, v
			}
		}
		if volTot == 0 {
			continue
		}
		volShares = append(volShares, topV/volTot)
		connShares = append(connShares, conns[top]/connTot)
	}
	mv, mc := stats.Mean(volShares), stats.Mean(connShares)
	if mv < 0.2 || mv > 0.6 {
		t.Fatalf("top-domain volume share = %.2f, want ≈0.38", mv)
	}
	if mc >= mv/1.5 {
		t.Fatalf("top-domain conn share %.2f not ≪ volume share %.2f", mc, mv)
	}
}

func TestWhitelistedVolumeShare(t *testing.T) {
	// §6.4: whitelisted domains ≈65% of traffic volume.
	var wl, total float64
	for _, f := range genDays(15, 3) {
		b := float64(f.UpBytes + f.DownBytes)
		total += b
		if domains.IsWhitelisted(f.Domain) {
			wl += b
		}
	}
	share := wl / total
	if share < 0.55 || share > 0.75 {
		t.Fatalf("whitelisted share = %.2f, want ≈0.65", share)
	}
}

func TestUnlistedDomainsPresent(t *testing.T) {
	found := false
	for _, f := range genDays(3, 1) {
		if strings.HasSuffix(f.Domain, ".unlisted.example") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no unlisted domains generated")
	}
}

func TestStreamingConcentration(t *testing.T) {
	g := New(usHome(3))
	streamVol := map[string]float64{}
	for d := 0; d < 7; d++ {
		day := day0.Add(time.Duration(d) * 24 * time.Hour)
		dt := g.GenerateDay(day, []household.Interval{{Start: day, End: day.Add(24 * time.Hour)}})
		for _, f := range dt.Flows {
			if f.Category == domains.Streaming {
				streamVol[f.Domain] += float64(f.DownBytes)
			}
		}
	}
	if len(streamVol) == 0 {
		t.Skip("no streaming this draw")
	}
	primary := g.primaryStream
	var total, prim float64
	for d, v := range streamVol {
		total += v
		if d == primary {
			prim = v
		}
	}
	if prim/total < 0.4 {
		t.Fatalf("primary streamer only %.2f of streaming volume", prim/total)
	}
}

func TestMinuteLoadsDiurnal(t *testing.T) {
	// Pool many homes: evening minutes must carry more volume than
	// early-morning minutes (Fig. 14).
	evening, night := 0.0, 0.0
	for h := 0; h < 20; h++ {
		g := New(usHome(h))
		dt := g.GenerateDay(day0, allDay())
		off := usCty.UTCOffset
		for _, m := range dt.Minutes {
			lh := m.Minute.Add(off).Hour()
			v := float64(m.UpBytes + m.DownBytes)
			if lh >= 19 && lh <= 22 {
				evening += v
			}
			if lh >= 2 && lh <= 5 {
				night += v
			}
		}
	}
	if evening <= 2*night {
		t.Fatalf("evening volume %.0f not ≫ night %.0f", evening, night)
	}
}

func TestHonestHomePeaksClampAtCapacity(t *testing.T) {
	for h := 0; h < 20; h++ {
		home := usHome(h)
		if home.UplinkSaturator {
			continue
		}
		g := New(home)
		dt := g.GenerateDay(day0, allDay())
		for _, m := range dt.Minutes {
			if m.UpPeakBps > home.UpBps*1.001 {
				t.Fatalf("home %d honest uplink peak %.0f > capacity %.0f", h, m.UpPeakBps, home.UpBps)
			}
			if m.DownPeakBps > home.DownBps*1.001 {
				t.Fatalf("home %d downlink peak exceeds capacity", h)
			}
		}
	}
}

func TestSaturatorExceedsCapacity(t *testing.T) {
	// Find a saturator home (8% of US homes).
	var home *household.Profile
	for h := 0; h < 200; h++ {
		if p := usHome(h); p.UplinkSaturator {
			home = p
			break
		}
	}
	if home == nil {
		t.Fatal("no saturator in 200 US homes (p=0.08)")
	}
	g := New(home)
	dt := g.GenerateDay(day0, allDay())
	over := 0
	for _, m := range dt.Minutes {
		if m.UpPeakBps > home.UpBps {
			over++
		}
	}
	if over < 100 {
		t.Fatalf("saturator exceeded capacity in only %d minutes", over)
	}
}

func TestFramesForFlowDriveCapture(t *testing.T) {
	home := usHome(0)
	g := New(home)
	dt := g.GenerateDay(day0, allDay())
	if len(dt.Flows) == 0 {
		t.Fatal("no flows")
	}
	// Pick a whitelisted-domain flow.
	var spec *FlowSpec
	for i := range dt.Flows {
		if domains.IsWhitelisted(dt.Flows[i].Domain) {
			spec = &dt.Flows[i]
			break
		}
	}
	if spec == nil {
		t.Fatal("no whitelisted flow")
	}
	gw := mac.MustParse("20:4e:7f:00:00:01")
	devIP := netip.MustParseAddr("192.168.1.10")
	frames := FramesForFlow(*spec, FrameOpts{GatewayMAC: gw, DeviceIP: devIP}, rng.New(1))
	if len(frames) < 5 {
		t.Fatalf("only %d frames", len(frames))
	}

	mon := capture.New(capture.Config{LANPrefix: netip.MustParsePrefix("192.168.1.0/24")}, anonymize.New([]byte("k")))
	for _, fr := range frames {
		dir := capture.Downstream
		if fr.Up {
			dir = capture.Upstream
		}
		mon.Process(fr.Raw, dir, fr.At)
	}
	flows := mon.Flows()
	var tcp int
	var domainSeen bool
	for _, f := range flows {
		if f.Key.RemotePort == 443 {
			tcp++
			if f.Domain == spec.Domain {
				domainSeen = true
			}
		}
	}
	if tcp == 0 {
		t.Fatal("capture saw no TCP flow")
	}
	if !domainSeen {
		t.Fatal("capture did not attribute the flow to its domain via DNS sniffing")
	}
}

func TestFrameTimestampsOrdered(t *testing.T) {
	home := usHome(0)
	g := New(home)
	dt := g.GenerateDay(day0, allDay())
	spec := dt.Flows[0]
	frames := FramesForFlow(spec, FrameOpts{
		GatewayMAC: mac.MustParse("20:4e:7f:00:00:01"),
		DeviceIP:   netip.MustParseAddr("192.168.1.10"),
	}, rng.New(2))
	for i := 1; i < len(frames); i++ {
		if frames[i].At.Before(frames[i-1].At) {
			t.Fatalf("frame %d out of order", i)
		}
	}
}

func TestDeriveRemoteIPStable(t *testing.T) {
	r := rng.New(1)
	a := deriveRemoteIP("netflix.com", r)
	b := deriveRemoteIP("netflix.com", r)
	if a != b {
		t.Fatal("unstable remote IP")
	}
	if deriveRemoteIP("hulu.com", r) == a {
		t.Fatal("distinct domains collide (unlucky hash?)")
	}
}
