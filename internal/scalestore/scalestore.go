// Package scalestore synthesizes the 10k-router store the scale tests
// run the figures over: two orders of magnitude past the paper's 126
// routers, with every row kind and a week of heartbeats.
package scalestore

import (
	"fmt"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/geo"
	"natpeek/internal/heartbeat"
	"natpeek/internal/mac"
	"natpeek/internal/rng"
)

const (
	// Routers is the fleet size.
	Routers = 10_000
	// TrafficHomes mirrors the deployment: only a subset of the fleet
	// contributes the Traffic data set (flows + throughput).
	TrafficHomes = 500
)

// The week the store covers.
var (
	From = time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	To   = From.Add(7 * 24 * time.Hour)
)

// Build synthesizes the 10k-router store directly (the upload
// path is exercised elsewhere; here only the analysis input shape
// matters). Row mix per router: a week of RLE heartbeats, 14 uptime
// reports, 14 capacity measures, one day of hourly censuses with
// per-device sightings, 12 WiFi scans — and for the Traffic subset,
// domain-tagged flows plus per-minute throughput samples.
func Build() *dataset.Store {
	st := dataset.NewStore()
	countries := geo.All()
	root := rng.New(7)
	domains := []string{"google.com", "youtube.com", "facebook.com", "netflix.com",
		"akamai.net", "twitter.com", "wikipedia.org", "bbc.co.uk"}
	ouis := []uint32{0x001CB3 /* Apple */, 0x0023AE /* Dell */, 0x0019C5 /* Sony */, 0x001599 /* Samsung */}

	minutes := func(d time.Duration) int { return int(d / time.Minute) }
	for i := 0; i < Routers; i++ {
		id := fmt.Sprintf("scale-%05d", i)
		c := countries[i%len(countries)]
		st.RouterCountry[id] = c.Code
		r := root.ChildN("router", i)

		// Availability: a third always-on, a third appliance-style
		// (08:00–20:00), a third with a mid-week outage.
		switch i % 3 {
		case 0:
			st.Heartbeats.RecordRun(id, heartbeat.Run{Start: From, Interval: 5 * time.Minute, Count: minutes(To.Sub(From)) / 5})
		case 1:
			for d := 0; d < 7; d++ {
				day := From.Add(time.Duration(d) * 24 * time.Hour)
				st.Heartbeats.RecordRun(id, heartbeat.Run{Start: day.Add(8 * time.Hour), Interval: 5 * time.Minute, Count: minutes(12*time.Hour) / 5})
			}
		default:
			gap := From.Add(time.Duration(48+r.Intn(48)) * time.Hour)
			st.Heartbeats.RecordRun(id, heartbeat.Run{Start: From, Interval: 5 * time.Minute, Count: minutes(gap.Sub(From)) / 5})
			st.Heartbeats.RecordRun(id, heartbeat.Run{Start: gap.Add(2 * time.Hour), Interval: 5 * time.Minute, Count: minutes(To.Sub(gap)-2*time.Hour) / 5})
		}

		for d := 0; d < 14; d++ {
			at := From.Add(time.Duration(d) * 12 * time.Hour)
			st.Uptime = append(st.Uptime, dataset.UptimeReport{
				RouterID: id, ReportedAt: at, Uptime: time.Duration(d) * 12 * time.Hour,
			})
			st.Capacity = append(st.Capacity, dataset.CapacityMeasure{
				RouterID: id, MeasuredAt: at,
				UpBps:   r.Range(0.5e6, 5e6),
				DownBps: r.Range(2e6, 50e6),
			})
		}

		// One day of hourly censuses with a stable device population, so
		// AlwaysConnected sees real always-present devices.
		devs := make([]mac.Addr, 2+r.Intn(3))
		kinds := make([]dataset.ConnKind, len(devs))
		for d := range devs {
			devs[d] = mac.FromOUI(ouis[(i+d)%len(ouis)], uint32(i*8+d))
			kinds[d] = dataset.ConnKind(d % 3)
		}
		for h := 0; h < 24; h++ {
			at := From.Add(time.Duration(h) * time.Hour)
			st.Counts = append(st.Counts, dataset.DeviceCount{
				RouterID: id, At: at, Wired: 1 + i%4, W24: len(devs) - 1, W5: i % 2,
			})
			for d, dev := range devs {
				// The first device shows up in every census; the rest
				// come and go.
				if d > 0 && r.Bool(0.3) {
					continue
				}
				st.Sightings = append(st.Sightings, dataset.DeviceSighting{
					RouterID: id, At: at, Device: dev, Kind: kinds[d],
				})
			}
		}

		for w := 0; w < 12; w++ {
			band, ch := "2.4GHz", 1+(i%11)
			if w%4 == 3 {
				band, ch = "5GHz", 36
			}
			aps := 1 + r.Intn(4)
			if c.Developed {
				aps = 10 + r.Intn(20)
			}
			st.WiFi = append(st.WiFi, dataset.WiFiScan{
				RouterID: id, At: From.Add(time.Duration(w) * 10 * time.Minute),
				Band: band, Channel: ch, VisibleAPs: aps, Clients: len(devs),
			})
		}

		if i < TrafficHomes {
			for f := 0; f < 50; f++ {
				dom := domains[r.Intn(len(domains))]
				if r.Bool(0.35) {
					dom = fmt.Sprintf("anon-%016x", r.Uint64())
				}
				first := From.Add(time.Duration(r.Intn(minutes(To.Sub(From)))) * time.Minute)
				st.Flows = append(st.Flows, dataset.FlowRecord{
					RouterID: id, Device: devs[f%len(devs)], Domain: dom,
					Proto: "tcp", First: first, Last: first.Add(time.Minute),
					UpBytes: int64(r.Intn(1 << 20)), DownBytes: int64(r.Intn(1 << 24)),
					UpPkts: 100, DownPkts: 400, Conns: int64(1 + r.Intn(20)),
				})
			}
			for m := 0; m < 120; m++ {
				dir := "down"
				if m%2 == 0 {
					dir = "up"
				}
				st.Throughput = append(st.Throughput, dataset.ThroughputSample{
					RouterID: id, Minute: From.Add(time.Duration(m) * time.Minute),
					Dir: dir, PeakBps: r.Range(1e5, 2e7), TotalBytes: int64(r.Intn(1 << 22)),
				})
			}
		}
	}
	return st
}
