package figures

import (
	"math"
	"reflect"
	"testing"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/rng"
)

// TestRollupMatchesOracles: every flow exhibit read off the one
// FlowRollup equals the same exhibit computed by its former stand-alone
// implementation — on the study, on loadgen mix (35% of flows under
// per-flow anonymised domains, so homes have long single-row tails and
// many rank ties to break), and on both after the Partial collapsed them.
func TestRollupMatchesOracles(t *testing.T) {
	study, _ := study(t)
	mix := dataset.NewStore()
	loadgenMix(mix, rng.New(11), 0, 6_000, 64, 0.65)
	collapsed := func(st *dataset.Store) *dataset.Store {
		p := analysis.NewPartial()
		p.Fold(st)
		return p.Store(st.Heartbeats)
	}
	for name, st := range map[string]*dataset.Store{
		"study": study, "study collapsed": collapsed(study),
		"loadgen mix": mix, "loadgen mix collapsed": collapsed(mix),
		"empty": dataset.NewStore(),
	} {
		r := analysis.RollupFlows(st)
		same := func(what string, want, got any) {
			t.Helper()
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: %s differs:\n oracle %v\n rollup %v", name, what, want, got)
			}
		}
		// Sums of shares over homes are rounded in whatever order the homes
		// come; the oracles iterate a map, so the last bit is not theirs
		// to fix either.
		near := func(what string, want, got []float64) {
			t.Helper()
			if len(want) != len(got) {
				t.Errorf("%s: %s: %d ranks, want %d", name, what, len(got), len(want))
				return
			}
			for i := range want {
				if math.Abs(want[i]-got[i]) > 1e-12 {
					t.Errorf("%s: %s[%d] = %v, oracle %v", name, what, i, got[i], want[i])
				}
			}
		}
		same("DeviceShares", oracleDeviceShares(st), r.DeviceShares())
		near("MeanTopDeviceShare", []float64{oracleMeanTopDeviceShare(st, 3)}, []float64{analysis.MeanTopShare(r.DeviceShares(), 3)})
		same("PopularDomains", oraclePopularDomains(st), r.PopularDomains())
		for _, maxRank := range []int{10, 3, 0} {
			want, got := oracleDomainShares(st, maxRank), r.DomainShares(maxRank)
			near("DomainShares.VolumeShare", want.VolumeShare, got.VolumeShare)
			near("DomainShares.ConnShareByConnRank", want.ConnShareByConnRank, got.ConnShareByConnRank)
			near("DomainShares.ConnShareByVolRank", want.ConnShareByVolRank, got.ConnShareByVolRank)
		}
		same("WhitelistedVolumeShare", oracleWhitelistedVolumeShare(st), r.WhitelistedVolumeShare())
		devs := oracleTopDevicesByVolume(st)
		same("TopDevicesByVolume", devs, r.TopDevicesByVolume())
		for i := 0; i < len(devs) && i < 6; i++ {
			same("DeviceDomains", oracleDeviceDomains(st, devs[i]), r.DeviceDomains(devs[i]))
		}
		same("ManufacturerHistogram", oracleManufacturerHistogram(st, 100_000), r.ManufacturerHistogram(100_000))
		same("busiest home", oracleBusiestTrafficHome(st), r.BusiestHome())
		homes := map[string]bool{}
		for _, f := range st.Flows {
			homes[f.RouterID] = true
		}
		if got := r.Homes(); len(got) != len(homes) {
			t.Errorf("%s: rollup has %d homes, the flows %d", name, len(got), len(homes))
		}
		// The stand-alone entry points are the rollup's.
		same("analysis.PopularDomains", r.PopularDomains(), analysis.PopularDomains(st))
		same("analysis.TopDevicesByVolume", r.TopDevicesByVolume(), analysis.TopDevicesByVolume(st))
		same("Fig20", fig20(r).String(), Fig20(st).String())
		same("Table2", table2(st, r).String(), Table2(st).String())
	}
}
