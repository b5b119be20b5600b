package analysis

import (
	"fmt"
	"math"
	"testing"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
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
