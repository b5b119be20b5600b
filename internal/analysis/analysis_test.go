package analysis

import (
	"math"
	"reflect"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/heartbeat"
	"natpeek/internal/mac"
)

var (
	aFrom = time.Date(2012, 10, 1, 0, 0, 0, 0, time.UTC)
	aTo   = time.Date(2012, 10, 11, 0, 0, 0, 0, time.UTC) // 10 days
	win   = AvailabilityWindow{From: aFrom, To: aTo}
)

// fixtureStore builds a small hand-crafted store with known properties:
//   - us-1 (developed): always on.
//   - us-2 (developed): one 1-hour outage.
//   - in-1 (developing): off 12 h/day (appliance-style).
//   - in-2 (developing): two 30-minute outages per day.
func fixtureStore() *dataset.Store {
	st := dataset.NewStore()
	st.RouterCountry["us-1"] = "US"
	st.RouterCountry["us-2"] = "US"
	st.RouterCountry["in-1"] = "IN"
	st.RouterCountry["in-2"] = "IN"

	days := int(aTo.Sub(aFrom) / (24 * time.Hour))
	minutes := func(d time.Duration) int { return int(d / time.Minute) }

	// us-1: continuous beats.
	st.Heartbeats.RecordRun("us-1", heartbeat.Run{Start: aFrom, Interval: time.Minute, Count: minutes(aTo.Sub(aFrom))})

	// us-2: continuous except hour 100–101.
	gapStart := aFrom.Add(100 * time.Hour)
	st.Heartbeats.RecordRun("us-2", heartbeat.Run{Start: aFrom, Interval: time.Minute, Count: minutes(100 * time.Hour)})
	st.Heartbeats.RecordRun("us-2", heartbeat.Run{Start: gapStart.Add(time.Hour), Interval: time.Minute, Count: minutes(aTo.Sub(gapStart) - time.Hour)})

	// in-1: on 08:00–20:00 each day.
	for d := 0; d < days; d++ {
		day := aFrom.Add(time.Duration(d) * 24 * time.Hour)
		st.Heartbeats.RecordRun("in-1", heartbeat.Run{Start: day.Add(8 * time.Hour), Interval: time.Minute, Count: minutes(12 * time.Hour)})
	}
	// in-2: on all day except 30-minute gaps at 03:00 and 15:00.
	for d := 0; d < days; d++ {
		day := aFrom.Add(time.Duration(d) * 24 * time.Hour)
		st.Heartbeats.RecordRun("in-2", heartbeat.Run{Start: day, Interval: time.Minute, Count: minutes(3 * time.Hour)})
		st.Heartbeats.RecordRun("in-2", heartbeat.Run{Start: day.Add(3*time.Hour + 30*time.Minute), Interval: time.Minute, Count: minutes(11*time.Hour + 30*time.Minute)})
		st.Heartbeats.RecordRun("in-2", heartbeat.Run{Start: day.Add(15*time.Hour + 30*time.Minute), Interval: time.Minute, Count: minutes(8*time.Hour + 30*time.Minute)})
	}
	return st
}

func TestRouterGrouping(t *testing.T) {
	st := fixtureStore()
	ro := NewRoster(st)
	dev := ro.InGroup(Developed)
	dvg := ro.InGroup(Developing)
	if len(dev) != 2 || len(dvg) != 2 {
		t.Fatalf("groups %v / %v", dev, dvg)
	}
	if got := ro.InCountry("IN"); len(got) != 2 {
		t.Fatalf("IN routers %v", got)
	}
}

func TestDowntimesPerDayByGroup(t *testing.T) {
	st := fixtureStore()
	got := DowntimesPerDayByGroup(NewGapIndex(st.Heartbeats, win), NewRoster(st))
	dev, dvg := got[Developed], got[Developing]
	if len(dev) != 2 || len(dvg) != 2 {
		t.Fatal("missing samples")
	}
	// us-1: 0/day; us-2: 0.1/day; in-1: ~1/day (overnight gaps, trailing
	// counts once); in-2: 2/day.
	for _, v := range dev {
		if v > 0.2 {
			t.Fatalf("developed rate %v too high", v)
		}
	}
	for _, v := range dvg {
		if v < 0.8 {
			t.Fatalf("developing rate %v too low", v)
		}
	}
}

func TestDowntimeDurations(t *testing.T) {
	st := fixtureStore()
	got := DowntimeDurationsByGroup(NewGapIndex(st.Heartbeats, win), NewRoster(st))
	if len(got[Developed]) != 1 {
		t.Fatalf("developed downtimes = %d, want 1", len(got[Developed]))
	}
	// Gap runs from the last beat before the outage (59 s into minute
	// 99:59) to the first beat after: 1 h plus one heartbeat interval.
	if got[Developed][0] != 3660 {
		t.Fatalf("us-2 downtime = %v s", got[Developed][0])
	}
	for _, d := range got[Developing] {
		if d < 1700 {
			t.Fatalf("developing downtime %v s too short", d)
		}
	}
}

func TestMedianTimeBetweenDowntimes(t *testing.T) {
	st := fixtureStore()
	got := MedianTimeBetweenDowntimes(NewGapIndex(st.Heartbeats, win), NewRoster(st))
	if got[Developed] <= got[Developing] {
		t.Fatalf("ordering wrong: %v vs %v", got[Developed], got[Developing])
	}
	// us median: between no-downtime (window 240h) and 1 downtime
	// (100h)... median of {240h, 240h/1} = 240h? us-2 has 1 downtime →
	// 240h. Median = 240h.
	if got[Developed] < 200*time.Hour {
		t.Fatalf("developed median %v", got[Developed])
	}
}

func TestDowntimesByCountry(t *testing.T) {
	st := fixtureStore()
	pts := DowntimesByCountry(NewGapIndex(st.Heartbeats, win), NewRoster(st), 2)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// Sorted by GDP: IN first.
	if pts[0].Code != "IN" || pts[1].Code != "US" {
		t.Fatalf("order %v", pts)
	}
	if pts[0].MedianDowntimes <= pts[1].MedianDowntimes {
		t.Fatal("IN should have more downtimes than US")
	}
	if pts[0].Routers != 2 {
		t.Fatal("router count wrong")
	}
}

func TestMedianUptimeFraction(t *testing.T) {
	st := fixtureStore()
	us := MedianUptimeFraction(NewGapIndex(st.Heartbeats, win), NewRoster(st), "US")
	in := MedianUptimeFraction(NewGapIndex(st.Heartbeats, win), NewRoster(st), "IN")
	if us < 0.99 {
		t.Fatalf("US uptime %v", us)
	}
	if in > 0.85 || in < 0.4 {
		t.Fatalf("IN uptime %v", in)
	}
}

func TestClassifyAvailability(t *testing.T) {
	st := fixtureStore()
	if m := RollupOf(st).ClassifyAvailability(NewGapIndex(st.Heartbeats, win), "us-1"); m != ModeAlwaysOn {
		t.Fatalf("us-1 = %v", m)
	}
	// in-1 (50% availability) with no uptime reports → appliance.
	if m := RollupOf(st).ClassifyAvailability(NewGapIndex(st.Heartbeats, win), "in-1"); m != ModeAppliance {
		t.Fatalf("in-1 = %v", m)
	}
	// Short uptime counters at every report → still appliance.
	for d := 0; d < 10; d++ {
		st.Uptime = append(st.Uptime, dataset.UptimeReport{
			RouterID:   "in-1",
			ReportedAt: aFrom.Add(time.Duration(d)*24*time.Hour + 12*time.Hour),
			Uptime:     4 * time.Hour,
		})
	}
	if m := RollupOf(st).ClassifyAvailability(NewGapIndex(st.Heartbeats, win), "in-1"); m != ModeAppliance {
		t.Fatalf("in-1 with short counters = %v", m)
	}
	// A low-availability router whose uptime counters keep growing is a
	// flaky-ISP home (Fig. 6c): build one from in-1's heartbeats under a
	// new ID with long counters.
	for _, r := range st.Heartbeats.Runs("in-1") {
		st.Heartbeats.RecordRun("in-3", r)
	}
	st.RouterCountry["in-3"] = "IN"
	for d := 0; d < 10; d++ {
		st.Uptime = append(st.Uptime, dataset.UptimeReport{
			RouterID:   "in-3",
			ReportedAt: aFrom.Add(time.Duration(d)*24*time.Hour + 12*time.Hour),
			Uptime:     time.Duration(d+2) * 24 * time.Hour,
		})
	}
	if m := RollupOf(st).ClassifyAvailability(NewGapIndex(st.Heartbeats, win), "in-3"); m != ModeFlakyISP {
		t.Fatalf("in-3 = %v", m)
	}
}

func TestFractionWithFrequentDowntime(t *testing.T) {
	st := fixtureStore()
	// Developing homes all exceed one downtime per 3 days.
	if f := FractionWithFrequentDowntime(NewGapIndex(st.Heartbeats, win), NewRoster(st), Developing, 3); f != 1 {
		t.Fatalf("developing frequent fraction %v", f)
	}
	if f := FractionWithFrequentDowntime(NewGapIndex(st.Heartbeats, win), NewRoster(st), Developed, 10); f > 0.5 {
		t.Fatalf("developed frequent fraction %v", f)
	}
}

func dev(n uint32) mac.Addr { return mac.FromOUI(0x001CB3, n) } // Apple OUI

func addCensus(st *dataset.Store, id string, at time.Time, wired, w24, w5 []mac.Addr) {
	st.Counts = append(st.Counts, dataset.DeviceCount{
		RouterID: id, At: at, Wired: len(wired), W24: len(w24), W5: len(w5),
	})
	add := func(list []mac.Addr, kind dataset.ConnKind) {
		for _, hw := range list {
			st.Sightings = append(st.Sightings, dataset.DeviceSighting{
				RouterID: id, At: at, Device: hw, Kind: kind,
			})
		}
	}
	add(wired, dataset.Wired)
	add(w24, dataset.Wireless24)
	add(w5, dataset.Wireless5)
}

func TestUniqueDevicesPerHomeAndBand(t *testing.T) {
	st := dataset.NewStore()
	st.RouterCountry["us-1"] = "US"
	addCensus(st, "us-1", aFrom, []mac.Addr{dev(1)}, []mac.Addr{dev(2), dev(3)}, []mac.Addr{dev(4)})
	addCensus(st, "us-1", aFrom.Add(time.Hour), []mac.Addr{dev(1)}, []mac.Addr{dev(2), dev(5)}, nil)
	uniq := RollupOf(st).UniqueDevicesPerHome()
	if uniq["us-1"] != 5 {
		t.Fatalf("unique = %d, want 5", uniq["us-1"])
	}
	b24, b5 := RollupOf(st).UniqueDevicesPerBand()
	if len(b24) != 1 || b24[0] != 3 {
		t.Fatalf("b24 = %v", b24)
	}
	if len(b5) != 1 || b5[0] != 1 {
		t.Fatalf("b5 = %v", b5)
	}
}

func TestConnectedByGroup(t *testing.T) {
	st := dataset.NewStore()
	st.RouterCountry["us-1"] = "US"
	st.RouterCountry["in-1"] = "IN"
	addCensus(st, "us-1", aFrom, []mac.Addr{dev(1)}, []mac.Addr{dev(2), dev(3)}, []mac.Addr{dev(4)})
	addCensus(st, "in-1", aFrom, nil, []mac.Addr{dev(5)}, nil)
	got := RollupOf(st).ConnectedByGroup(NewRoster(st))
	d := got[Developed]
	if d.Wired.Mean != 1 || d.Wireless.Mean != 3 || d.W5.Mean != 1 {
		t.Fatalf("developed %+v", d)
	}
	g := got[Developing]
	if g.Wired.Mean != 0 || g.Wireless.Mean != 1 {
		t.Fatalf("developing %+v", g)
	}
}

func TestAlwaysConnected(t *testing.T) {
	st := dataset.NewStore()
	st.RouterCountry["us-1"] = "US"
	st.RouterCountry["us-2"] = "US"
	span := 36 * 24 * time.Hour // > 5 weeks
	n := 40
	step := span / time.Duration(n)
	for i := 0; i <= n; i++ {
		at := aFrom.Add(time.Duration(i) * step)
		// us-1: dev(1) wired in every census; dev(2) wireless intermittent.
		w24 := []mac.Addr{}
		if i%2 == 0 {
			w24 = append(w24, dev(2))
		}
		addCensus(st, "us-1", at, []mac.Addr{dev(1)}, w24, nil)
		// us-2: nothing constant.
		var wired []mac.Addr
		if i%3 == 0 {
			wired = append(wired, dev(3))
		}
		addCensus(st, "us-2", at, wired, nil, nil)
	}
	got := RollupOf(st).AlwaysConnected(NewRoster(st), 35*24*time.Hour)
	d := got[Developed]
	if d.Homes != 2 {
		t.Fatalf("homes = %d", d.Homes)
	}
	if d.WithWired != 1 || d.WithWireless != 0 {
		t.Fatalf("always-connected %+v", d)
	}
	if d.WiredShare != 0.5 {
		t.Fatalf("share %v", d.WiredShare)
	}
}

func TestAlwaysConnectedRequiresSpan(t *testing.T) {
	st := dataset.NewStore()
	st.RouterCountry["us-1"] = "US"
	// Only 2 days of censuses: span too short to qualify.
	for i := 0; i < 48; i++ {
		addCensus(st, "us-1", aFrom.Add(time.Duration(i)*time.Hour), []mac.Addr{dev(1)}, nil, nil)
	}
	got := RollupOf(st).AlwaysConnected(NewRoster(st), 35*24*time.Hour)
	if got[Developed].WithWired != 0 {
		t.Fatal("short span counted as always-connected")
	}
}

func TestVisibleAPsByGroup(t *testing.T) {
	st := dataset.NewStore()
	st.RouterCountry["us-1"] = "US"
	st.RouterCountry["in-1"] = "IN"
	for i := 0; i < 10; i++ {
		at := aFrom.Add(time.Duration(i) * 10 * time.Minute)
		st.WiFi = append(st.WiFi,
			dataset.WiFiScan{RouterID: "us-1", At: at, Band: "2.4GHz", Channel: 11, VisibleAPs: 20},
			dataset.WiFiScan{RouterID: "us-1", At: at, Band: "5GHz", Channel: 36, VisibleAPs: 1},
			dataset.WiFiScan{RouterID: "in-1", At: at, Band: "2.4GHz", Channel: 11, VisibleAPs: 2},
		)
	}
	got := RollupOf(st).VisibleAPsByGroup(NewRoster(st))
	if len(got[Developed]) != 1 || got[Developed][0] != 20 {
		t.Fatalf("developed %v", got[Developed])
	}
	if len(got[Developing]) != 1 || got[Developing][0] != 2 {
		t.Fatalf("developing %v", got[Developing])
	}
}

func TestAllFourPortsShare(t *testing.T) {
	st := dataset.NewStore()
	st.RouterCountry["us-1"] = "US"
	st.RouterCountry["us-2"] = "US"
	addCensus(st, "us-1", aFrom, []mac.Addr{dev(1), dev(2), dev(3), dev(4)}, nil, nil)
	addCensus(st, "us-2", aFrom, []mac.Addr{dev(5)}, nil, nil)
	if got := RollupOf(st).AllFourPortsShares(NewRoster(st))[Developed]; got != 0.5 {
		t.Fatalf("share = %v", got)
	}
}

func TestManufacturerHistogram(t *testing.T) {
	st := dataset.NewStore()
	st.RouterCountry["us-1"] = "US"
	apple1, apple2 := dev(10), dev(11)
	roku := mac.FromOUI(0xB0A737, 1)
	netgear := mac.FromOUI(0x204E7F, 1)
	tiny := dev(12)
	flow := func(d mac.Addr, b int64) {
		st.Flows = append(st.Flows, dataset.FlowRecord{
			RouterID: "us-1", Device: d, Domain: "netflix.com", Proto: "tcp",
			DownBytes: b, Conns: 1,
		})
	}
	flow(apple1, 1e6)
	flow(apple2, 2e6)
	flow(roku, 5e8)
	flow(netgear, 1e9) // must be excluded
	flow(tiny, 10)     // below 100 KB floor

	hist := RollupOf(st).ManufacturerHistogram(100_000)
	if len(hist) != 2 {
		t.Fatalf("hist = %v", hist)
	}
	if hist[0].Category != "Apple" || hist[0].Devices != 2 {
		t.Fatalf("top = %+v", hist[0])
	}
	if hist[1].Category != "InternetTV" || hist[1].Devices != 1 {
		t.Fatalf("second = %+v", hist[1])
	}
}

func TestDiurnalDevices(t *testing.T) {
	st := dataset.NewStore()
	st.RouterCountry["us-1"] = "US" // UTC-5
	// Monday 2012-10-01. Census at 20:00 local = 01:00 UTC next day.
	evening := time.Date(2012, 10, 2, 1, 0, 0, 0, time.UTC)
	afternoon := time.Date(2012, 10, 1, 19, 0, 0, 0, time.UTC) // 14:00 local
	saturday := time.Date(2012, 10, 7, 1, 0, 0, 0, time.UTC)   // Sat 20:00 local
	st.Counts = append(st.Counts,
		dataset.DeviceCount{RouterID: "us-1", At: evening, W24: 4},
		dataset.DeviceCount{RouterID: "us-1", At: afternoon, W24: 1},
		dataset.DeviceCount{RouterID: "us-1", At: saturday, W24: 3},
	)
	weekday, weekend := RollupOf(st).DiurnalDevices(NewRoster(st))
	if weekday.Means()[20] != 4 || weekday.Means()[14] != 1 {
		t.Fatalf("weekday bins wrong: %v", weekday.Means())
	}
	if weekend.Means()[20] != 3 {
		t.Fatalf("weekend bins wrong: %v", weekend.Means())
	}
}

func usageStore() *dataset.Store {
	st := dataset.NewStore()
	st.RouterCountry["us-1"] = "US"
	st.Capacity = append(st.Capacity,
		dataset.CapacityMeasure{RouterID: "us-1", MeasuredAt: aFrom, UpBps: 2e6, DownBps: 16e6})
	// Throughput: mostly low, one high minute.
	for i := 0; i < 20; i++ {
		peak := 2e6
		if i == 19 {
			peak = 8e6
		}
		st.Throughput = append(st.Throughput, dataset.ThroughputSample{
			RouterID: "us-1", Minute: aFrom.Add(time.Duration(i) * time.Minute),
			Dir: "down", PeakBps: peak, TotalBytes: 1e6,
		})
	}
	// Flows: device A dominates; netflix dominates by volume with few
	// conns; google many conns low volume.
	a, b := dev(1), dev(2)
	st.Flows = append(st.Flows,
		dataset.FlowRecord{RouterID: "us-1", Device: a, Domain: "netflix.com", DownBytes: 8e8, Conns: 4},
		dataset.FlowRecord{RouterID: "us-1", Device: a, Domain: "google.com", DownBytes: 5e7, Conns: 60},
		dataset.FlowRecord{RouterID: "us-1", Device: b, Domain: "google.com", DownBytes: 1e8, Conns: 40},
		dataset.FlowRecord{RouterID: "us-1", Device: b, Domain: "anon-123456789abc", DownBytes: 5e7, Conns: 10},
	)
	return st
}

func TestSaturation(t *testing.T) {
	st := usageStore()
	sats := linksOf(RollupOf(st))
	if len(sats) != 1 {
		t.Fatalf("points = %d", len(sats))
	}
	s := sats[0]
	if s.Dir != "down" || s.CapacityBps != 16e6 {
		t.Fatalf("%+v", s)
	}
	// 95th percentile of mostly-2e6 with one 8e6 → below capacity.
	if s.Utilization <= 0 || s.Utilization > 1 {
		t.Fatalf("utilization %v", s.Utilization)
	}
}

// TestSaturationDirections: a link is "up" or "down". Throughput rows
// with any other Dir are stored but have no capacity of their own, so
// they make no Fig. 15 point — they used to count as downlinks.
func TestSaturationDirections(t *testing.T) {
	st := usageStore()
	for i, dir := range []string{"up", "up", "sideways", "", "DOWN"} {
		st.Throughput = append(st.Throughput, dataset.ThroughputSample{
			RouterID: "us-1", Minute: aFrom.Add(time.Duration(i) * time.Minute),
			Dir: dir, PeakBps: 3e6, TotalBytes: 1e6,
		})
	}
	sats := linksOf(RollupOf(st))
	if len(sats) != 2 {
		t.Fatalf("%d points, want one per direction: %+v", len(sats), sats)
	}
	if d := sats[0]; d.Dir != "down" || d.CapacityBps != 16e6 || d.Minutes != 20 {
		t.Fatalf("downlink point %+v, want 20 minutes against 16 Mbps", d)
	}
	if u := sats[1]; u.Dir != "up" || u.CapacityBps != 2e6 || u.Minutes != 2 || u.MinutesOver != 2 {
		t.Fatalf("uplink point %+v, want 2 minutes, both over 2 Mbps", u)
	}
}

func TestUtilizationSeriesSorted(t *testing.T) {
	st := usageStore()
	series := seriesOf(t, RollupOf(st), "us-1", "down")
	if len(series) != 20 {
		t.Fatalf("len = %d", len(series))
	}
	for i := 1; i < len(series); i++ {
		if series[i].Minute.Before(series[i-1].Minute) {
			t.Fatal("unsorted")
		}
	}
}

func TestDeviceShares(t *testing.T) {
	st := usageStore()
	v := RollupOf(st)
	all := sharesOf(v)
	if len(all) != 1 { // us-1 is the one home with flows
		t.Fatalf("shares for %d homes, want us-1's", len(all))
	}
	shares := all[0]
	if len(shares) != 2 {
		t.Fatalf("shares = %v", shares)
	}
	if shares[0] < 0.8 { // 8.5e8 of 1e9
		t.Fatalf("top share = %v", shares[0])
	}
	if top := v.MeanTopShare(); top != 0 { // two devices: below the three it asks for
		t.Fatalf("mean top = %v", top)
	}
}

func TestPopularDomains(t *testing.T) {
	st := usageStore()
	pop, _ := RollupOf(st).PopularDomains(math.MaxInt)
	if len(pop) == 0 || pop[0].Top5 != 1 {
		t.Fatalf("pop = %v", pop)
	}
}

func TestDomainShares(t *testing.T) {
	st := usageStore()
	curves := RollupOf(st).DomainShares(5)
	// netflix: 8e8 of 1e9 = 80% volume but 4/114 conns.
	if curves.VolumeShare[0] < 0.7 {
		t.Fatalf("top volume share %v", curves.VolumeShare[0])
	}
	if curves.ConnShareByVolRank[0] > 0.2 {
		t.Fatalf("conn share of top-by-volume %v", curves.ConnShareByVolRank[0])
	}
	// google has most conns: 100/114.
	if curves.ConnShareByConnRank[0] < 0.5 {
		t.Fatalf("top conn share %v", curves.ConnShareByConnRank[0])
	}
}

func TestWhitelistedVolumeShare(t *testing.T) {
	st := usageStore()
	got := RollupOf(st).WhitelistedVolumeShare()
	want := (8e8 + 5e7 + 1e8) / 1e9
	if got < want-0.01 || got > want+0.01 {
		t.Fatalf("share = %v, want %v", got, want)
	}
}

func TestDeviceDomainsFingerprint(t *testing.T) {
	st := usageStore()
	v := RollupOf(st)
	top := v.TopDevices(math.MaxInt)
	if len(top) != 2 || top[0] != dev(1) {
		t.Fatalf("top devices %v", top)
	}
	mix := v.DeviceDomains(dev(1), math.MaxInt)
	if mix[0].Domain != "netflix.com" || mix[0].Share < 0.9 {
		t.Fatalf("mix = %v", mix)
	}
	if v.DeviceDomains(dev(99), math.MaxInt) != nil {
		t.Fatal("unknown device has a mix")
	}
}

// TestOnePairPerDeviceDomain: rows of one (device, domain) add into one
// pair entry whatever their protocol, on every path a flow row enters a
// rollup by — a batch, a page's tail and a Partial's fold.
func TestOnePairPerDeviceDomain(t *testing.T) {
	st := dataset.NewStore()
	for i := 0; i < 100; i++ {
		st.Flows = append(st.Flows, dataset.FlowRecord{RouterID: "us-1", Device: dev(1), Domain: "netflix.com",
			Proto: []string{"tcp", "udp"}[i%2], UpBytes: 10, DownBytes: 100, Conns: 1})
	}
	p := NewPartial()
	p.Fold(st)
	if n := p.FlowAggregates(); n != 1 {
		t.Errorf("the partial counts %d flow aggregates, want 1", n)
	}
	for name, homes := range map[string][]*home{
		"RollupOf":     RollupOf(st).homes,
		"page tail":    NewSnapshot(st).roll.homes,
		"Partial.Fold": p.roll.homes,
	} {
		if len(homes) != 1 {
			t.Fatalf("%s: %d homes, want 1", name, len(homes))
		}
		if ps := homes[0].pairs; len(ps) != 1 || ps[0].bytes != 100*110 {
			t.Errorf("%s: %d pair entries, want one of %d bytes", name, len(ps), 100*110)
		}
	}
}

func TestClassifyDowntime(t *testing.T) {
	st := fixtureStore()
	gap := heartbeat.Downtime{
		Start: aFrom.Add(10 * time.Hour),
		End:   aFrom.Add(11 * time.Hour),
	}
	// No uptime reports at all → unknown.
	if c := RollupOf(st).ClassifyDowntime("us-2", gap); c != CauseUnknown {
		t.Fatalf("no reports: %v", c)
	}
	// Counter spanning the gap → network outage.
	st.Uptime = append(st.Uptime, dataset.UptimeReport{
		RouterID: "us-2", ReportedAt: aFrom.Add(12 * time.Hour), Uptime: 12 * time.Hour,
	})
	if c := RollupOf(st).ClassifyDowntime("us-2", gap); c != CauseNetwork {
		t.Fatalf("spanning counter: %v", c)
	}
	// Counter starting inside the gap → power-off.
	st2 := fixtureStore()
	st2.Uptime = append(st2.Uptime, dataset.UptimeReport{
		RouterID: "us-2", ReportedAt: aFrom.Add(12 * time.Hour), Uptime: 70 * time.Minute,
	})
	if c := RollupOf(st2).ClassifyDowntime("us-2", gap); c != CausePowerOff {
		t.Fatalf("reset counter: %v", c)
	}
	// Report too far after the gap → unknown.
	st3 := fixtureStore()
	st3.Uptime = append(st3.Uptime, dataset.UptimeReport{
		RouterID: "us-2", ReportedAt: aFrom.Add(9 * 24 * time.Hour), Uptime: time.Hour,
	})
	if c := RollupOf(st3).ClassifyDowntime("us-2", gap); c != CauseUnknown {
		t.Fatalf("stale report: %v", c)
	}
}

func TestDowntimeCausesTally(t *testing.T) {
	st := fixtureStore()
	// Give in-2 spanning counters so its gaps classify as network.
	for d := 0; d < 10; d++ {
		st.Uptime = append(st.Uptime, dataset.UptimeReport{
			RouterID:   "in-2",
			ReportedAt: aFrom.Add(time.Duration(d)*24*time.Hour + 20*time.Hour),
			Uptime:     time.Duration(d)*24*time.Hour + 20*time.Hour,
		})
	}
	tally := RollupOf(st).DowntimeCauses(NewGapIndex(st.Heartbeats, win), NewRoster(st), Developing)
	if tally[CauseNetwork] == 0 {
		t.Fatalf("tally %v", tally)
	}
}

// TestDowntimeCausesIgnoreUploadOrder: two uptime reports taken at one
// instant — a router that rebooted half an hour before it reported, and
// a stale counter read at the same second — tally the same cause
// whichever was uploaded first. Reports order by (ReportedAt, Uptime),
// so the first at or after the gap's end is the lower counter.
func TestDowntimeCausesIgnoreUploadOrder(t *testing.T) {
	at := aFrom.Add(102 * time.Hour) // us-2's gap is hours 100–101
	reports := []dataset.UptimeReport{
		{RouterID: "us-2", ReportedAt: at, Uptime: 10 * time.Hour},
		{RouterID: "us-2", ReportedAt: at, Uptime: 30 * time.Minute},
	}
	var tallies [2]map[DowntimeCause]int
	for i, order := range [][]int{{0, 1}, {1, 0}} {
		st := fixtureStore()
		for _, j := range order {
			st.Uptime = append(st.Uptime, reports[j])
		}
		tallies[i] = RollupOf(st).DowntimeCauses(NewGapIndex(st.Heartbeats, win), NewRoster(st), Developed)
	}
	if !reflect.DeepEqual(tallies[0], tallies[1]) {
		t.Fatalf("the tally depends on upload order: %v, then %v", tallies[0], tallies[1])
	}
	if want := map[DowntimeCause]int{CausePowerOff: 1}; !reflect.DeepEqual(tallies[0], want) {
		t.Fatalf("tally %v, want %v", tallies[0], want)
	}
}
