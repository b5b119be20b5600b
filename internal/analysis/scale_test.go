package analysis

import (
	"fmt"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/geo"
	"natpeek/internal/heartbeat"
	"natpeek/internal/mac"
	"natpeek/internal/rng"
)

// The scale regression guard: every paper figure must stay roughly
// linear in store size. Each figure gets a generous wall-clock budget on
// a store two orders of magnitude past the deployment (10k routers vs
// the paper's 126); an accidental O(n²) pass over homes or devices blows
// straight through it, while a healthy linear pass finishes in a small
// fraction.

const (
	scaleRouters = 10_000
	// trafficHomes mirrors the deployment: only a subset of the fleet
	// contributes the Traffic data set (flows + throughput).
	trafficHomes = 500
	// figureBudget is deliberately loose — it must absorb -race and slow
	// CI, yet still sit orders of magnitude below any quadratic blow-up
	// (10k² home pairs or ~1M² row pairs cannot finish inside it).
	figureBudget = 10 * time.Second
)

var (
	sFrom = time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	sTo   = sFrom.Add(7 * 24 * time.Hour)
	sWin  = AvailabilityWindow{From: sFrom, To: sTo}
)

// buildScaleStore synthesizes the 10k-router store directly (the upload
// path is exercised elsewhere; here only the analysis input shape
// matters). Row mix per router: a week of RLE heartbeats, 14 uptime
// reports, 14 capacity measures, one day of hourly censuses with
// per-device sightings, 12 WiFi scans — and for the Traffic subset,
// domain-tagged flows plus per-minute throughput samples.
func buildScaleStore() *dataset.Store {
	st := dataset.NewStore()
	countries := geo.All()
	root := rng.New(7)
	domains := []string{"google.com", "youtube.com", "facebook.com", "netflix.com",
		"akamai.net", "twitter.com", "wikipedia.org", "bbc.co.uk"}
	ouis := []uint32{0x001CB3 /* Apple */, 0x0023AE /* Dell */, 0x0019C5 /* Sony */, 0x001599 /* Samsung */}

	minutes := func(d time.Duration) int { return int(d / time.Minute) }
	for i := 0; i < scaleRouters; i++ {
		id := fmt.Sprintf("scale-%05d", i)
		c := countries[i%len(countries)]
		st.RouterCountry[id] = c.Code
		r := root.ChildN("router", i)

		// Availability: a third always-on, a third appliance-style
		// (08:00–20:00), a third with a mid-week outage.
		switch i % 3 {
		case 0:
			st.Heartbeats.RecordRun(id, heartbeat.Run{Start: sFrom, Interval: 5 * time.Minute, Count: minutes(sTo.Sub(sFrom)) / 5})
		case 1:
			for d := 0; d < 7; d++ {
				day := sFrom.Add(time.Duration(d) * 24 * time.Hour)
				st.Heartbeats.RecordRun(id, heartbeat.Run{Start: day.Add(8 * time.Hour), Interval: 5 * time.Minute, Count: minutes(12*time.Hour) / 5})
			}
		default:
			gap := sFrom.Add(time.Duration(48+r.Intn(48)) * time.Hour)
			st.Heartbeats.RecordRun(id, heartbeat.Run{Start: sFrom, Interval: 5 * time.Minute, Count: minutes(gap.Sub(sFrom)) / 5})
			st.Heartbeats.RecordRun(id, heartbeat.Run{Start: gap.Add(2 * time.Hour), Interval: 5 * time.Minute, Count: minutes(sTo.Sub(gap)-2*time.Hour) / 5})
		}

		for d := 0; d < 14; d++ {
			at := sFrom.Add(time.Duration(d) * 12 * time.Hour)
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
			at := sFrom.Add(time.Duration(h) * time.Hour)
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
				RouterID: id, At: sFrom.Add(time.Duration(w) * 10 * time.Minute),
				Band: band, Channel: ch, VisibleAPs: aps, Clients: len(devs),
			})
		}

		if i < trafficHomes {
			for f := 0; f < 50; f++ {
				dom := domains[r.Intn(len(domains))]
				if r.Bool(0.35) {
					dom = fmt.Sprintf("anon-%016x", r.Uint64())
				}
				first := sFrom.Add(time.Duration(r.Intn(minutes(sTo.Sub(sFrom)))) * time.Minute)
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
					RouterID: id, Minute: sFrom.Add(time.Duration(m) * time.Minute),
					Dir: dir, PeakBps: r.Range(1e5, 2e7), TotalBytes: int64(r.Intn(1 << 22)),
				})
			}
		}
	}
	return st
}

// TestScaleFigureBudgets builds the 10k-router store once and runs every
// figure against the clock. Each subtest also sanity-checks the output
// shape, so a figure silently returning nothing can't pass by doing no
// work.
func TestScaleFigureBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-router synthetic store is too heavy for -short")
	}
	start := time.Now()
	st := buildScaleStore()
	t.Logf("built %d-router store in %v (%d sightings, %d flows)",
		scaleRouters, time.Since(start), len(st.Sightings), len(st.Flows))

	figure := func(name string, fn func() error) {
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			err := fn()
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if elapsed > figureBudget {
				t.Fatalf("%s took %v, budget %v — likely superlinear in store size", name, elapsed, figureBudget)
			}
			t.Logf("%s: %v", name, elapsed)
		})
	}

	figure("DowntimesPerDayByGroup", func() error {
		got := DowntimesPerDayByGroup(st, NewRoster(st), sWin)
		if len(got[Developed]) == 0 || len(got[Developing]) == 0 {
			return fmt.Errorf("missing group samples: %d/%d", len(got[Developed]), len(got[Developing]))
		}
		return nil
	})
	figure("DowntimeDurationsByGroup", func() error {
		got := DowntimeDurationsByGroup(st, NewRoster(st), sWin)
		if len(got[Developing]) == 0 {
			return fmt.Errorf("no developing downtimes")
		}
		return nil
	})
	figure("MedianTimeBetweenDowntimes", func() error {
		got := MedianTimeBetweenDowntimes(st, NewRoster(st), sWin)
		if got[Developed] == 0 {
			return fmt.Errorf("no developed median")
		}
		return nil
	})
	figure("DowntimesByCountry", func() error {
		pts := DowntimesByCountry(st, NewRoster(st), sWin, 3)
		if len(pts) < 10 {
			return fmt.Errorf("only %d country points", len(pts))
		}
		return nil
	})
	figure("FractionWithFrequentDowntime", func() error {
		FractionWithFrequentDowntime(st, NewRoster(st), Developing, sWin, 1)
		return nil
	})
	figure("DowntimeCauses", func() error {
		got := DowntimeCauses(st, NewRoster(st), Developing, sWin)
		if len(got) == 0 {
			return fmt.Errorf("no downtime causes")
		}
		return nil
	})
	figure("UniqueDevicesPerHome", func() error {
		got := UniqueDevicesPerHome(st)
		if len(got) != scaleRouters {
			return fmt.Errorf("devices for %d homes, want %d", len(got), scaleRouters)
		}
		return nil
	})
	figure("ConnectedByGroup", func() error {
		got := ConnectedByGroup(st)
		if got[Developed].Wired.N == 0 || got[Developing].Wired.N == 0 {
			return fmt.Errorf("empty group: %+v", got)
		}
		return nil
	})
	figure("AlwaysConnected", func() error {
		got := AlwaysConnected(st, 12*time.Hour)
		if got[Developed].WithWired+got[Developed].WithWireless == 0 {
			return fmt.Errorf("no always-connected devices found: %+v", got)
		}
		return nil
	})
	figure("VisibleAPsByGroup", func() error {
		got := VisibleAPsByGroup(st)
		if len(got[Developed]) == 0 || len(got[Developing]) == 0 {
			return fmt.Errorf("missing AP samples")
		}
		return nil
	})
	figure("AllFourPortsShare", func() error {
		if share := AllFourPortsShare(st, Developed); share == 0 {
			return fmt.Errorf("no four-port homes in a 10k fleet")
		}
		return nil
	})
	figure("ManufacturerHistogram", func() error {
		got := ManufacturerHistogram(st, 100_000)
		if len(got) == 0 {
			return fmt.Errorf("no manufacturer categories")
		}
		return nil
	})
	figure("DiurnalDevices", func() error {
		weekday, _ := DiurnalDevices(st)
		means := weekday.Means()
		total := 0.0
		for _, m := range means {
			total += m
		}
		if total == 0 {
			return fmt.Errorf("no weekday diurnal samples")
		}
		return nil
	})
	figure("Saturation", func() error {
		got := Saturation(st)
		if len(got) == 0 {
			return fmt.Errorf("no saturation points")
		}
		return nil
	})
	figure("DeviceShares", func() error {
		got := DeviceShares(st)
		if len(got) == 0 {
			return fmt.Errorf("no device shares")
		}
		return nil
	})
	figure("PopularDomains", func() error {
		got := PopularDomains(st)
		if len(got) == 0 {
			return fmt.Errorf("no popular domains")
		}
		return nil
	})
	figure("DomainShares", func() error {
		got := DomainShares(st, 10)
		if got.VolumeShare[0] == 0 {
			return fmt.Errorf("empty rank-1 volume share")
		}
		return nil
	})
	figure("WhitelistedVolumeShare", func() error {
		if share := WhitelistedVolumeShare(st); share <= 0 || share >= 1 {
			return fmt.Errorf("whitelisted share %v outside (0,1)", share)
		}
		return nil
	})
	figure("UsageByGroup", func() error {
		got := UsageByGroup(st)
		if len(got) == 0 {
			return fmt.Errorf("no usage groups")
		}
		return nil
	})
}
