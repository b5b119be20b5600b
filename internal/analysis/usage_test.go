package analysis

import (
	"fmt"
	"math"
	"testing"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/world"
)

// TestUsageByGroupDeterministic: the same store gives the same bits on
// every call. A float sum of the per-home top-domain shares taken in an
// order that varies (a map's) changes its last bits from call to call;
// Ext §7 prints them with %.0f, so no golden would notice.
func TestUsageByGroupDeterministic(t *testing.T) {
	st := dataset.NewStore()
	codes := []string{"US", "GB", "IN", "PK"}
	for h := 0; h < 300; h++ {
		id := fmt.Sprintf("home-%03d", h)
		st.RouterCountry[id] = codes[h%len(codes)]
		for f := 0; f < 6; f++ {
			st.Flows = append(st.Flows, dataset.FlowRecord{
				RouterID: id, Device: mac.FromOUI(0x001CB3, uint32(h)),
				Domain:  fmt.Sprintf("d%d.example.com", (h*7+f*13)%11),
				UpBytes: int64(1 + (h*31+f*17)%997), DownBytes: int64(1 + (h*53+f*29)%9973),
			})
		}
	}
	want := RollupOf(st).UsageByGroup(NewRoster(st))
	for i := 0; i < 50; i++ {
		got := RollupOf(st).UsageByGroup(NewRoster(st))
		for _, g := range []Group{Developed, Developing} {
			w, o := want[g].TopDomainShare, got[g].TopDomainShare
			if math.Float64bits(w) != math.Float64bits(o) {
				t.Fatalf("call %d: %s TopDomainShare %v, the first call %v", i, g, o, w)
			}
		}
	}
}

// TestUsageBeyondTheUS is the §7 extension's claim (DESIGN.md §5): with
// Traffic consent extended past the US, developed homes put a larger
// share of their volume on streaming than developing ones, while the
// share the whitelist leaves attributable is the same in both groups.
func TestUsageBeyondTheUS(t *testing.T) {
	if raceEnabled {
		t.Skip("the world run is too heavy for -race; check-figures runs it without")
	}
	w := world.Build(world.Config{Seed: 1, Scale: 0.3, GlobalTraffic: true, TrafficHomes: 8})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	u := RollupOf(w.Store).UsageByGroup(NewRoster(w.Store))
	dev, dvg := u[Developed], u[Developing]
	t.Logf("developed %+v, developing %+v", dev, dvg)
	if dev.Homes == 0 || dvg.Homes == 0 {
		t.Fatalf("traffic homes: developed %d, developing %d", dev.Homes, dvg.Homes)
	}
	if dev.StreamingShare < dvg.StreamingShare+0.05 {
		t.Errorf("streaming share: developed %.3f not above developing %.3f", dev.StreamingShare, dvg.StreamingShare)
	}
	if d := math.Abs(dev.WhitelistedShare - dvg.WhitelistedShare); d > 0.03 {
		t.Errorf("whitelisted share: developed %.3f, developing %.3f", dev.WhitelistedShare, dvg.WhitelistedShare)
	}
}
