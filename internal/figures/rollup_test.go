package figures

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/heartbeat"
	"natpeek/internal/rng"
	"natpeek/internal/stats"
)

// TestRollupMatchesOracles: every flow exhibit read off the one
// Rollup equals the same exhibit computed by its former stand-alone
// implementation — on the study, and on loadgen mix (35% of flows under
// per-flow anonymised domains, so homes have long single-row tails and
// many rank ties to break).
func TestRollupMatchesOracles(t *testing.T) {
	study, _ := study(t)
	mix := dataset.NewStore()
	loadgenMix(mix, rng.New(11), 0, 6_000, 64, 0.65)
	for name, st := range map[string]*dataset.Store{
		"study": study, "loadgen mix": mix, "empty": dataset.NewStore(),
	} {
		r := analysis.RollupOf(st)
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
		same("DeviceShares", oracleDeviceShares(st), sharesOf(r))
		near("MeanTopDeviceShare", []float64{oracleMeanTopDeviceShare(st, 3)}, []float64{r.MeanTopShare()})
		same("PopularDomains", oraclePopularDomains(st), popularOf(r))
		for _, maxRank := range []int{10, 3, 0} {
			want, got := oracleDomainShares(st, maxRank), r.DomainShares(maxRank)
			near("DomainShares.VolumeShare", want.VolumeShare, got.VolumeShare)
			near("DomainShares.ConnShareByConnRank", want.ConnShareByConnRank, got.ConnShareByConnRank)
			near("DomainShares.ConnShareByVolRank", want.ConnShareByVolRank, got.ConnShareByVolRank)
		}
		same("WhitelistedVolumeShare", oracleWhitelistedVolumeShare(st), r.WhitelistedVolumeShare())
		devs := oracleTopDevicesByVolume(st)
		same("TopDevices(all)", devs, r.TopDevices(len(devs)+1))
		for _, k := range []int{0, 1, 4, 7} {
			same(fmt.Sprintf("TopDevices(%d)", k), devs[:min(k, len(devs))], r.TopDevices(k))
		}
		for i := 0; i < len(devs) && i < 6; i++ {
			mix := oracleDeviceDomains(st, devs[i])
			same("DeviceDomains", mix, r.DeviceDomains(devs[i], math.MaxInt))
			for _, k := range []int{1, 4, 8} {
				same(fmt.Sprintf("DeviceDomains(%d)", k), mix[:min(k, len(mix))], r.DeviceDomains(devs[i], k))
			}
		}
		same("ManufacturerHistogram", oracleManufacturerHistogram(st, 100_000), r.ManufacturerHistogram(100_000))
		same("busiest home", oracleBusiestTrafficHome(st), r.BusiestHome())
		homes := map[string]bool{}
		for _, f := range st.Flows {
			homes[f.RouterID] = true
		}
		if got := r.KindCounts(st.RouterCountry)[4].Routers; got != len(homes) {
			t.Errorf("%s: rollup has %d homes with traffic, the flows %d", name, got, len(homes))
		}
		same("UsageByGroup", oracleUsageByGroup(st), r.UsageByGroup(analysis.NewRoster(st)))
		same("Fig20", fig20(r).String(), fig20(analysis.RollupOf(st)).String())
		same("Table2", table2(st, r).String(), table2(st, analysis.RollupOf(st)).String())
	}
}

// diffRollups compares the output of every method of two Rollups, the
// kept-kind exhibits under the roster of st, and the per-home methods
// for each router st registers. Two rollups of the same rows iterate
// homes in the same order, so the float sums must agree to the bit.
func diffRollups(t *testing.T, what string, st *dataset.Store, want, got *analysis.Rollup) {
	t.Helper()
	ro := analysis.NewRoster(st)
	routers := st.Routers()
	same := func(method string, w, g any) {
		t.Helper()
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s: %s differs:\n want %v\n got  %v", what, method, w, g)
		}
	}
	same("BusiestHome", want.BusiestHome(), got.BusiestHome())
	same("DeviceShares", sharesOf(want), sharesOf(got))
	same("PopularDomains", popularOf(want), popularOf(got))
	for _, dir := range []string{"up", "down"} {
		same("Utilization("+dir+")", want.Utilization(dir), got.Utilization(dir))
	}
	same("MeanTopShare", want.MeanTopShare(), got.MeanTopShare())
	same("Oversaturated", want.Oversaturated(), got.Oversaturated())
	// 12 reaches past the depth a home caches its rankings to.
	for _, maxRank := range []int{10, 3, 12} {
		same(fmt.Sprintf("DomainShares(%d)", maxRank), want.DomainShares(maxRank), got.DomainShares(maxRank))
	}
	same("WhitelistedVolumeShare", want.WhitelistedVolumeShare(), got.WhitelistedVolumeShare())
	devs := want.TopDevices(math.MaxInt)
	same("TopDevices(all)", devs, got.TopDevices(math.MaxInt))
	same("TopDevices(4)", want.TopDevices(4), got.TopDevices(4))
	for i := 0; i < len(devs) && i < 6; i++ {
		for _, k := range []int{4, math.MaxInt} {
			same(fmt.Sprintf("DeviceDomains(%s, %d)", devs[i], k), want.DeviceDomains(devs[i], k), got.DeviceDomains(devs[i], k))
		}
	}
	for _, floor := range []int64{0, 100_000} {
		same(fmt.Sprintf("ManufacturerHistogram(%d)", floor), want.ManufacturerHistogram(floor), got.ManufacturerHistogram(floor))
	}

	same("KeptRows", want.KeptRows(), got.KeptRows())
	same("UsageByGroup", want.UsageByGroup(ro), got.UsageByGroup(ro))
	same("KindCounts", want.KindCounts(st.RouterCountry), got.KindCounts(st.RouterCountry))
	// A roster of one router counts it as a country of its own: with two
	// or more routers holding a kind, the kind's count of countries is 2
	// when the router is one of them and 1 when it is not, so the rows
	// of each kind are credited to the same routers. (A kind only one
	// router holds counts one country whoever holds it.)
	for _, id := range routers {
		alone := map[string]string{id: "alone"}
		same("KindCounts("+id+" alone)", want.KindCounts(alone), got.KindCounts(alone))
	}
	same("ConnectedByGroup", want.ConnectedByGroup(ro), got.ConnectedByGroup(ro))
	same("UniqueDevicesPerHome", want.UniqueDevicesPerHome(), got.UniqueDevicesPerHome())
	wb24, wb5 := want.UniqueDevicesPerBand()
	gb24, gb5 := got.UniqueDevicesPerBand()
	same("UniqueDevicesPerBand", [2][]float64{wb24, wb5}, [2][]float64{gb24, gb5})
	for _, span := range []time.Duration{0, 30 * time.Hour} {
		same(fmt.Sprintf("AlwaysConnected(%v)", span), want.AlwaysConnected(ro, span), got.AlwaysConnected(ro, span))
	}
	same("VisibleAPsByGroup", want.VisibleAPsByGroup(ro), got.VisibleAPsByGroup(ro))
	same("AllFourPortsShares", want.AllFourPortsShares(ro), got.AllFourPortsShares(ro))
	wd, we := want.DiurnalDevices(ro)
	gd, ge := got.DiurnalDevices(ro)
	same("DiurnalDevices", [2]stats.HourBins{wd, we}, [2]stats.HourBins{gd, ge})
	for _, id := range routers {
		wu, wdn := want.HomeCapacity(id)
		gu, gdn := got.HomeCapacity(id)
		same("HomeCapacity("+id+")", [2]float64{wu, wdn}, [2]float64{gu, gdn})
		for _, dir := range []string{"up", "down"} {
			same("UtilizationSeries("+id+", "+dir+")", utilization(want, id, dir), utilization(got, id, dir))
		}
		gap := heartbeat.Downtime{Start: time.Date(2013, 4, 3, 0, 0, 0, 0, time.UTC), End: time.Date(2013, 4, 3, 2, 0, 0, 0, time.UTC)}
		same("ClassifyDowntime("+id+")", want.ClassifyDowntime(id, gap), got.ClassifyDowntime(id, gap))
	}
}

// folded reads p's rollup as a page with an empty tail does.
func folded(p *analysis.Partial) *analysis.Rollup {
	sn := analysis.NewSnapshot(dataset.NewStore())
	sn.Capture(p)
	return sn.Rollup()
}

// utilization collects what UtilizationSeries reads.
func utilization(v *analysis.Rollup, id, dir string) []analysis.UtilizationPoint {
	var out []analysis.UtilizationPoint
	v.UtilizationSeries(id, dir, func(p analysis.UtilizationPoint) { out = append(out, p) })
	return out
}

// rowChunks cuts each of st's row kinds at n-1 random points into n
// chunks.
func rowChunks(st *dataset.Store, s *rng.Stream, n int) []*dataset.Store {
	out := make([]*dataset.Store, n)
	for i := range out {
		out[i] = &dataset.Store{RouterCountry: map[string]string{}}
	}
	for _, k := range dataset.Kinds {
		cuts := []int{0, k.Len(st)}
		for i := 1; i < n; i++ {
			cuts = append(cuts, s.Intn(k.Len(st)+1))
		}
		slices.Sort(cuts)
		for i, c := range out {
			k.Window(c, st, cuts[i], cuts[i+1])
		}
	}
	return out
}

// joined is the rows of chunks, in order, as one store.
func joined(chunks []*dataset.Store) *dataset.Store {
	st := dataset.NewStore()
	for _, c := range chunks {
		for _, k := range dataset.Kinds {
			k.Append(st, c, 0, k.Len(c))
		}
	}
	return st
}

// splitKinds returns st's kept rows and its flows as two stores.
func splitKinds(st *dataset.Store) (kept, flows *dataset.Store) {
	k := *st
	k.Flows = nil
	return &k, &dataset.Store{RouterCountry: map[string]string{}, Flows: st.Flows}
}

// withLoners moves some of st's rows to routers of one kind each: every
// fifth flow row to a router with flows alone, every fifth capacity row
// to one with capacity alone, both in their source router's country.
func withLoners(st *dataset.Store) {
	loner := func(id, kind string) string {
		l := id + "-" + kind
		if c, ok := st.RouterCountry[id]; ok {
			st.RouterCountry[l] = c
		}
		return l
	}
	for i := 0; i < len(st.Flows); i += 5 {
		st.Flows[i].RouterID = loner(st.Flows[i].RouterID, "flows")
	}
	for i := 0; i < len(st.Capacity); i += 5 {
		st.Capacity[i].RouterID = loner(st.Capacity[i].RouterID, "capacity")
	}
}

// TestFoldedRollupMatchesBatch: the rollup a Partial folds chunk by chunk
// — read on its own or with a tail laid over it — answers every method, flow and kept kinds
// alike, as RollupOf over the same rows does; and a rollup read part-way
// keeps answering for the rows it was read over while the folds go on.
// Chunks are cut at random points per kind, or hold a router's kept rows
// one or more chunks before its first flow row, or its flows first; the
// study has routers with kept rows alone, the mix routers of one kind.
func TestFoldedRollupMatchesBatch(t *testing.T) {
	study, _ := study(t)
	for seed := uint64(1); seed <= 6; seed++ {
		s := rng.New(seed).Child("folded rollup")
		mix := dataset.NewStore()
		loadgenMix(mix, s, 0, 500+s.Intn(2500), 8+s.Intn(56), 0.65)
		withLoners(mix)
		for _, in := range []struct {
			name string
			st   *dataset.Store
		}{{"study", study}, {"loadgen mix", mix}} {
			want := analysis.RollupOf(in.st)
			kept, flows := splitKinds(in.st)
			for _, cut := range []struct {
				name   string
				chunks []*dataset.Store
			}{
				{"random cuts", rowChunks(in.st, s, 2+s.Intn(7))},
				{"kept first", append(rowChunks(kept, s, 1+s.Intn(3)), rowChunks(flows, s, 1+s.Intn(3))...)},
				{"flows first", append(rowChunks(flows, s, 1+s.Intn(3)), rowChunks(kept, s, 1+s.Intn(3))...)},
			} {
				what := fmt.Sprintf("seed %d, %s, %s", seed, in.name, cut.name)
				foldedMatchesBatch(t, what, s, in.st, want, cut.chunks)
			}
		}
	}
}

// foldedMatchesBatch folds chunks as TestFoldedRollupMatchesBatch says
// and compares each rollup with want, RollupOf over the same rows.
func foldedMatchesBatch(t *testing.T, what string, s *rng.Stream, st *dataset.Store, want *analysis.Rollup, chunks []*dataset.Store) {
	t.Helper()

	// Chunk by chunk, a view taken after a random few.
	p := analysis.NewPartial()
	body := len(chunks) - s.Intn(2) // the last chunk is a tail or not
	var early *analysis.Rollup
	var earlyRows *dataset.Store
	for i, c := range chunks[:body] {
		p.Fold(c)
		if early == nil && s.Bool(0.5) {
			early = folded(p)
			earlyRows = joined(chunks[:i+1])
		}
	}
	got := folded(p)
	if body < len(chunks) {
		sn := analysis.NewSnapshot(chunks[body])
		sn.Capture(p)
		got = sn.Rollup()
	}
	diffRollups(t, what, st, want, got)
	if early != nil {
		diffRollups(t, what+": a view taken part-way", st, analysis.RollupOf(earlyRows), early)
	}
}

// TestViewKeepsItsVersionAcrossKinds: a router's flows and kept kinds
// are one version. A view taken before a fold of router X's kept rows
// alone, and then of X's flows, reads what it read when it was taken,
// flow and kept kinds alike, while the partial reads the new rows.
func TestViewKeepsItsVersionAcrossKinds(t *testing.T) {
	st := dataset.NewStore()
	loadgenMix(st, rng.New(3), 0, 1_500, 12, 0.65)
	p := analysis.NewPartial()
	p.Fold(st)
	view := folded(p)

	// X's rows of every kind: known and new devices and domains.
	x := dataset.NewStore()
	loadgenMix(x, rng.New(4), 0, 200, 1, 0.65)
	kept, flows := splitKinds(x)
	p.Fold(kept)
	mid := folded(p)
	p.Fold(flows)
	diffRollups(t, "the view taken first", st, analysis.RollupOf(st), view)
	diffRollups(t, "the view taken between", st, analysis.RollupOf(joined([]*dataset.Store{st, kept})), mid)
	diffRollups(t, "the partial", st, analysis.RollupOf(joined([]*dataset.Store{st, kept, flows})), folded(p))
}

// sharesOf collects v's Fig. 17 device shares, by router.
func sharesOf(v *analysis.Rollup) (out [][]float64) {
	v.DeviceShares(func(sh []float64) { out = append(out, sh) })
	return out
}

// popularOf is v's whole Fig. 18 ranking.
func popularOf(v *analysis.Rollup) []analysis.DomainPopularity {
	pop, _ := v.PopularDomains(math.MaxInt)
	return pop
}
