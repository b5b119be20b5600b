package analysis

import (
	"fmt"
	"testing"
	"time"

	"natpeek/internal/scalestore"
)

// The scale regression guard: every paper figure must stay roughly
// linear in store size. Each figure gets a generous wall-clock budget on
// a store two orders of magnitude past the deployment (10k routers vs
// the paper's 126); an accidental O(n²) pass over homes or devices blows
// straight through it, while a healthy linear pass finishes in a small
// fraction.

// figureBudget is deliberately loose — it must absorb -race and slow
// CI, yet still sit orders of magnitude below any quadratic blow-up
// (10k² home pairs or ~1M² row pairs cannot finish inside it).
const figureBudget = 10 * time.Second

var sWin = AvailabilityWindow{From: scalestore.From, To: scalestore.To}

// TestScaleFigureBudgets builds the 10k-router store once and runs every
// figure against the clock. Each subtest also sanity-checks the output
// shape, so a figure silently returning nothing can't pass by doing no
// work.
func TestScaleFigureBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-router synthetic store is too heavy for -short")
	}
	start := time.Now()
	st := scalestore.Build()
	t.Logf("built %d-router store in %v (%d sightings, %d flows)",
		scalestore.Routers, time.Since(start), len(st.Sightings), len(st.Flows))

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

	// Each availability subtest makes every router's entry anew: over
	// the roster and the log, without homes.
	avail := func() *Availability { return new(Rollup).Availability(st.Heartbeats, NewRoster(st), sWin) }
	figure("DowntimesPerDayByGroup", func() error {
		a := avail()
		if len(a.DowntimesPerDay(Developed)) == 0 || len(a.DowntimesPerDay(Developing)) == 0 {
			return fmt.Errorf("missing group samples: %d/%d", len(a.DowntimesPerDay(Developed)), len(a.DowntimesPerDay(Developing)))
		}
		return nil
	})
	figure("DowntimeDurationsByGroup", func() error {
		if len(avail().DowntimeDurations(Developing)) == 0 {
			return fmt.Errorf("no developing downtimes")
		}
		return nil
	})
	figure("MedianTimeBetweenDowntimes", func() error {
		if avail().MedianTimeBetweenDowntimes(Developed) == 0 {
			return fmt.Errorf("no developed median")
		}
		return nil
	})
	figure("DowntimesByCountry", func() error {
		pts := avail().DowntimesByCountry(3)
		if len(pts) < 10 {
			return fmt.Errorf("only %d country points", len(pts))
		}
		return nil
	})
	figure("FractionWithFrequentDowntime", func() error {
		avail().FractionWithFrequentDowntime(Developing, 1)
		return nil
	})
	figure("DowntimeCauses", func() error {
		got := RollupOf(st).DowntimeCauses(NewGapIndex(st.Heartbeats, sWin), NewRoster(st), Developing)
		if len(got) == 0 {
			return fmt.Errorf("no downtime causes")
		}
		return nil
	})
	figure("UniqueDevicesPerHome", func() error {
		got := RollupOf(st).UniqueDevicesPerHome()
		if len(got) != scalestore.Routers {
			return fmt.Errorf("devices for %d homes, want %d", len(got), scalestore.Routers)
		}
		return nil
	})
	figure("ConnectedByGroup", func() error {
		got := RollupOf(st).ConnectedByGroup(NewRoster(st))
		if got[Developed].Wired.N == 0 || got[Developing].Wired.N == 0 {
			return fmt.Errorf("empty group: %+v", got)
		}
		return nil
	})
	figure("AlwaysConnected", func() error {
		got := RollupOf(st).AlwaysConnected(NewRoster(st), 12*time.Hour)
		if got[Developed].WithWired+got[Developed].WithWireless == 0 {
			return fmt.Errorf("no always-connected devices found: %+v", got)
		}
		return nil
	})
	figure("VisibleAPsByGroup", func() error {
		got := RollupOf(st).VisibleAPsByGroup(NewRoster(st))
		if len(got[Developed]) == 0 || len(got[Developing]) == 0 {
			return fmt.Errorf("missing AP samples")
		}
		return nil
	})
	figure("AllFourPortsShare", func() error {
		if share := RollupOf(st).AllFourPortsShares(NewRoster(st))[Developed]; share == 0 {
			return fmt.Errorf("no four-port homes in a 10k fleet")
		}
		return nil
	})
	figure("ManufacturerHistogram", func() error {
		got := RollupOf(st).ManufacturerHistogram(100_000)
		if len(got) == 0 {
			return fmt.Errorf("no manufacturer categories")
		}
		return nil
	})
	figure("DiurnalDevices", func() error {
		weekday, _ := RollupOf(st).DiurnalDevices(NewRoster(st))
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
		got := linksOf(RollupOf(st))
		if len(got) == 0 {
			return fmt.Errorf("no saturation points")
		}
		return nil
	})
	figure("DeviceShares", func() error {
		got := sharesOf(RollupOf(st))
		if len(got) == 0 {
			return fmt.Errorf("no device shares")
		}
		return nil
	})
	figure("PopularDomains", func() error {
		got, _ := RollupOf(st).PopularDomains(10)
		if len(got) == 0 {
			return fmt.Errorf("no popular domains")
		}
		return nil
	})
	figure("DomainShares", func() error {
		got := RollupOf(st).DomainShares()
		if got.VolumeShare[0] == 0 {
			return fmt.Errorf("empty rank-1 volume share")
		}
		return nil
	})
	figure("WhitelistedVolumeShare", func() error {
		if share := RollupOf(st).WhitelistedVolumeShare(); share <= 0 || share >= 1 {
			return fmt.Errorf("whitelisted share %v outside (0,1)", share)
		}
		return nil
	})
	figure("UsageByGroup", func() error {
		got := RollupOf(st).UsageByGroup(NewRoster(st))
		if len(got) == 0 {
			return fmt.Errorf("no usage groups")
		}
		return nil
	})
}
