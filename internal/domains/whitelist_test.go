package domains_test

import (
	"testing"
	"time"

	"natpeek/internal/domains"
	"natpeek/internal/geo"
	"natpeek/internal/household"
	"natpeek/internal/rng"
	"natpeek/internal/trafficgen"
)

// TestAblationWhitelistSize is the whitelist-size ablation (DESIGN.md
// §4): over a day of ten US homes' flows, the volume a top-n whitelist
// leaves attributable grows with n, with diminishing returns, and the
// paper's top 200 reach 60–70 % (paper: ≈65 %).
func TestAblationWhitelistSize(t *testing.T) {
	us, _ := geo.Lookup("US")
	root := rng.New(3)
	day0 := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	var flows []trafficgen.FlowSpec
	for h := 0; h < 10; h++ {
		gen := trafficgen.New(household.Generate(us, h, root))
		dt := gen.GenerateDay(day0, []household.Interval{{Start: day0, End: day0.Add(24 * time.Hour)}})
		flows = append(flows, dt.Flows...)
	}
	share := func(size int) float64 {
		var named, total float64
		for _, f := range flows {
			v := float64(f.UpBytes + f.DownBytes)
			total += v
			if r := domains.Rank(domains.Whitelisted(f.Domain)); r > 0 && r <= size {
				named += v
			}
		}
		return named / total
	}
	prev, gain := 0.0, 1.0
	for _, n := range []int{10, 25, 50, 100, 200} {
		s := share(n)
		t.Logf("top-%-3d attributable volume %.0f%%", n, 100*s)
		if s <= prev {
			t.Errorf("top-%d: share %.3f did not grow from %.3f", n, s, prev)
		}
		if s-prev > gain {
			t.Errorf("top-%d: gain %.3f above the previous step's %.3f", n, s-prev, gain)
		}
		prev, gain = s, s-prev
	}
	if prev < 0.60 || prev > 0.70 {
		t.Errorf("top-200 share %.3f, paper ≈0.65", prev)
	}
}
