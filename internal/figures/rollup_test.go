package figures

import (
	"fmt"
	"math"
	"reflect"
	"slices"
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

// diffRollups compares every FlowRollup method's output. Two rollups of
// the same rows iterate homes in the same order, so the float sums must
// agree to the bit.
func diffRollups(t *testing.T, what string, want, got *analysis.FlowRollup) {
	t.Helper()
	same := func(method string, w, g any) {
		t.Helper()
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s: %s differs:\n want %v\n got  %v", what, method, w, g)
		}
	}
	same("Homes", want.Homes(), got.Homes())
	same("BusiestHome", want.BusiestHome(), got.BusiestHome())
	same("DeviceShares", want.DeviceShares(), got.DeviceShares())
	same("PopularDomains", want.PopularDomains(), got.PopularDomains())
	// 12 reaches past the depth a home caches its rankings to.
	for _, maxRank := range []int{10, 3, 12} {
		same(fmt.Sprintf("DomainShares(%d)", maxRank), want.DomainShares(maxRank), got.DomainShares(maxRank))
	}
	same("WhitelistedVolumeShare", want.WhitelistedVolumeShare(), got.WhitelistedVolumeShare())
	devs := want.TopDevicesByVolume()
	same("TopDevicesByVolume", devs, got.TopDevicesByVolume())
	for i := 0; i < len(devs) && i < 6; i++ {
		same(fmt.Sprintf("DeviceDomains(%s)", devs[i]), want.DeviceDomains(devs[i]), got.DeviceDomains(devs[i]))
	}
	for _, floor := range []int64{0, 100_000} {
		same(fmt.Sprintf("ManufacturerHistogram(%d)", floor), want.ManufacturerHistogram(floor), got.ManufacturerHistogram(floor))
	}
}

// folded reads p's rollup as a page with an empty tail does.
func folded(p *analysis.Partial) *analysis.FlowRollup {
	sn := analysis.NewSnapshot(dataset.NewStore())
	sn.Capture(p)
	return sn.Flows()
}

// flowChunks cuts st's flows at n-1 random points into n chunks.
func flowChunks(st *dataset.Store, s *rng.Stream, n int) []*dataset.Store {
	cuts := []int{0, len(st.Flows)}
	for i := 1; i < n; i++ {
		cuts = append(cuts, s.Intn(len(st.Flows)+1))
	}
	slices.Sort(cuts)
	out := make([]*dataset.Store, n)
	for i := range out {
		out[i] = &dataset.Store{RouterCountry: map[string]string{}, Flows: st.Flows[cuts[i]:cuts[i+1]]}
	}
	return out
}

// TestFoldedRollupMatchesBatch: the rollup a Partial folds chunk by chunk
// — read on its own, with a tail laid over it, or after a Merge of two
// partials folded apart — answers every method as RollupFlows over the
// same rows does; and a rollup read part-way keeps answering for the rows
// it was read over while the folds go on.
func TestFoldedRollupMatchesBatch(t *testing.T) {
	study, _ := study(t)
	for seed := uint64(1); seed <= 6; seed++ {
		s := rng.New(seed).Child("folded rollup")
		mix := dataset.NewStore()
		loadgenMix(mix, s, 0, 500+s.Intn(2500), 8+s.Intn(56), 0.65)
		for _, in := range []struct {
			name string
			st   *dataset.Store
		}{{"study", study}, {"loadgen mix", mix}} {
			what := fmt.Sprintf("seed %d, %s", seed, in.name)
			want := analysis.RollupFlows(in.st)
			chunks := flowChunks(in.st, s, 2+s.Intn(7))

			// Chunk by chunk, a view taken after a random few.
			p := analysis.NewPartial()
			body := len(chunks) - s.Intn(2) // the last chunk is a tail or not
			var early *analysis.FlowRollup
			var earlyRows []dataset.FlowRecord
			for i, c := range chunks[:body] {
				p.Fold(c)
				if early == nil && s.Bool(0.5) {
					early = folded(p)
					earlyRows = in.st.Flows[:countFlows(chunks[:i+1])]
				}
			}
			got := folded(p)
			if body < len(chunks) {
				sn := analysis.NewSnapshot(chunks[body])
				sn.Capture(p)
				got = sn.Flows()
			}
			diffRollups(t, what, want, got)
			if early != nil {
				diffRollups(t, what+": a view taken part-way",
					analysis.RollupFlows(&dataset.Store{Flows: earlyRows}), early)
			}

			// Two partials folded apart, then merged.
			cut := s.Intn(len(chunks) + 1)
			p1, p2 := analysis.NewPartial(), analysis.NewPartial()
			for _, c := range chunks[:cut] {
				p1.Fold(c)
			}
			for _, c := range chunks[cut:] {
				p2.Fold(c)
			}
			p1.Merge(p2)
			diffRollups(t, what+": merged partials", want, folded(p1))
		}
	}
}

func countFlows(chunks []*dataset.Store) int {
	n := 0
	for _, c := range chunks {
		n += len(c.Flows)
	}
	return n
}
