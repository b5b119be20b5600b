package figures

import (
	"testing"

	"natpeek/internal/analysis"
	"natpeek/internal/stats"
	"natpeek/internal/world"
)

// TestClaimsHoldAcrossSeeds guards against seed-1 luck: the paper's core
// qualitative claims must hold for several independent seeds.
func TestClaimsHoldAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed robustness sweep")
	}
	for _, seed := range []uint64{2, 5, 11} {
		seed := seed
		w := world.Build(world.Config{Seed: seed, Scale: 0.25, TrafficHomes: 6})
		if err := w.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st := w.Store
		win := DefaultWindows().Availability

		// Availability: developing ≫ developed downtime frequency.
		a := heartbeatsOf(st, win)
		devMed := stats.Median(a.DowntimesPerDay(analysis.Developed))
		dvgMed := stats.Median(a.DowntimesPerDay(analysis.Developing))
		if dvgMed < 5*devMed {
			t.Errorf("seed %d: downtime separation weak: %.3f vs %.3f", seed, devMed, dvgMed)
		}

		// Infrastructure: wireless > wired; 2.4 > 5 GHz.
		v, ro := analysis.RollupOf(st), analysis.NewRoster(st)
		conn := v.ConnectedByGroup(ro)
		for g, a := range conn {
			if a.Wireless.Mean <= a.Wired.Mean {
				t.Errorf("seed %d %v: wireless %.2f ≤ wired %.2f", seed, g, a.Wireless.Mean, a.Wired.Mean)
			}
			if a.W24.Mean <= a.W5.Mean {
				t.Errorf("seed %d %v: band ordering broken", seed, g)
			}
		}

		// Spectrum crowding: developed sees more APs.
		aps := v.VisibleAPsByGroup(ro)
		if stats.Median(aps[analysis.Developed]) <= stats.Median(aps[analysis.Developing]) {
			t.Errorf("seed %d: AP crowding ordering broken", seed)
		}

		// Usage: dominant device and volume/connection disproportionality.
		if top := v.MeanTopShare(); top < 0.4 {
			t.Errorf("seed %d: top-device share %.2f", seed, top)
		}
		curves := v.DomainShares()
		if curves.VolumeShare[0] < 0.15 {
			t.Errorf("seed %d: top-domain volume share %.2f", seed, curves.VolumeShare[0])
		}
		if curves.ConnShareByVolRank[0] >= curves.VolumeShare[0] {
			t.Errorf("seed %d: disproportionality inverted", seed)
		}
		wl := v.WhitelistedVolumeShare()
		if wl < 0.5 || wl > 0.85 {
			t.Errorf("seed %d: whitelisted share %.2f", seed, wl)
		}
	}
}
