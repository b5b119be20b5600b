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
		same("TopDevices(all)", devs, r.TopDevices(len(devs)+1))
		for _, k := range []int{0, 1, 4, 7} {
			same(fmt.Sprintf("TopDevices(%d)", k), devs[:min(k, len(devs))], r.TopDevices(k))
		}
		for i := 0; i < len(devs) && i < 6; i++ {
			same("DeviceDomains", oracleDeviceDomains(st, devs[i]), r.DeviceDomains(devs[i]))
		}
		same("ManufacturerHistogram", oracleManufacturerHistogram(st, 100_000), r.ManufacturerHistogram(100_000))
		same("busiest home", oracleBusiestTrafficHome(st), r.BusiestHome())
		homes := map[string]bool{}
		for _, f := range st.Flows {
			homes[f.RouterID] = true
		}
		if got := r.RoutersWith(analysis.HasTraffic); len(got) != len(homes) {
			t.Errorf("%s: rollup has %d homes with traffic, the flows %d", name, len(got), len(homes))
		}
		same("UsageByGroup", oracleUsageByGroup(st), r.UsageByGroup(analysis.NewRoster(st)))
		same("Fig20", fig20(r).String(), fig20(analysis.RollupOf(st)).String())
		same("Table2", table2(st, r).String(), table2(st, analysis.RollupOf(st)).String())
	}
}

// diffRollups compares the output of every method of two Rollups, the
// kept-kind exhibits under roster ro. Two rollups of the same rows
// iterate homes in the same order, so the float sums must agree to the
// bit.
func diffRollups(t *testing.T, what string, ro *analysis.Roster, want, got *analysis.Rollup) {
	t.Helper()
	same := func(method string, w, g any) {
		t.Helper()
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s: %s differs:\n want %v\n got  %v", what, method, w, g)
		}
	}
	same("BusiestHome", want.BusiestHome(), got.BusiestHome())
	same("DeviceShares", want.DeviceShares(), got.DeviceShares())
	same("PopularDomains", want.PopularDomains(), got.PopularDomains())
	// 12 reaches past the depth a home caches its rankings to.
	for _, maxRank := range []int{10, 3, 12} {
		same(fmt.Sprintf("DomainShares(%d)", maxRank), want.DomainShares(maxRank), got.DomainShares(maxRank))
	}
	same("WhitelistedVolumeShare", want.WhitelistedVolumeShare(), got.WhitelistedVolumeShare())
	devs := want.TopDevices(math.MaxInt)
	same("TopDevices(all)", devs, got.TopDevices(math.MaxInt))
	same("TopDevices(4)", want.TopDevices(4), got.TopDevices(4))
	for i := 0; i < len(devs) && i < 6; i++ {
		same(fmt.Sprintf("DeviceDomains(%s)", devs[i]), want.DeviceDomains(devs[i]), got.DeviceDomains(devs[i]))
	}
	for _, floor := range []int64{0, 100_000} {
		same(fmt.Sprintf("ManufacturerHistogram(%d)", floor), want.ManufacturerHistogram(floor), got.ManufacturerHistogram(floor))
	}

	same("KeptRows", want.KeptRows(), got.KeptRows())
	same("UsageByGroup", want.UsageByGroup(ro), got.UsageByGroup(ro))
	for _, k := range []analysis.KindSet{analysis.HasUptime, analysis.HasCapacity, analysis.HasCensus, analysis.HasWiFi, analysis.HasTraffic} {
		same(fmt.Sprintf("RoutersWith(%d)", k), sorted(want.RoutersWith(k)), sorted(got.RoutersWith(k)))
	}
	same("Saturation", want.Saturation(), got.Saturation())
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
	ids := sorted(want.RoutersWith(analysis.HasCapacity | analysis.HasUptime))
	for _, id := range ids[:min(8, len(ids))] {
		wu, wdn := want.HomeCapacity(id)
		gu, gdn := got.HomeCapacity(id)
		same("HomeCapacity("+id+")", [2]float64{wu, wdn}, [2]float64{gu, gdn})
		for _, dir := range []string{"up", "down"} {
			same("UtilizationSeries("+id+", "+dir+")", want.UtilizationSeries(id, dir), got.UtilizationSeries(id, dir))
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

// sorted returns the IDs in order: the views list routers in the order
// their rows were folded in, which differs with the chunking.
func sorted(ids []string) []string {
	slices.Sort(ids)
	return ids
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
			ro := analysis.NewRoster(in.st)
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
				foldedMatchesBatch(t, what, s, ro, want, cut.chunks)
			}
		}
	}
}

// foldedMatchesBatch folds chunks as TestFoldedRollupMatchesBatch says
// and compares each rollup with want, RollupOf over the same rows.
func foldedMatchesBatch(t *testing.T, what string, s *rng.Stream, ro *analysis.Roster, want *analysis.Rollup, chunks []*dataset.Store) {
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
	diffRollups(t, what, ro, want, got)
	if early != nil {
		diffRollups(t, what+": a view taken part-way", ro, analysis.RollupOf(earlyRows), early)
	}
}

// TestViewKeepsItsVersionAcrossKinds: a router's flows and kept kinds
// are one version. A view taken before a fold of router X's kept rows
// alone, and then of X's flows, reads what it read when it was taken,
// flow and kept kinds alike, while the partial reads the new rows.
func TestViewKeepsItsVersionAcrossKinds(t *testing.T) {
	st := dataset.NewStore()
	loadgenMix(st, rng.New(3), 0, 1_500, 12, 0.65)
	ro := analysis.NewRoster(st)
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
	diffRollups(t, "the view taken first", ro, analysis.RollupOf(st), view)
	diffRollups(t, "the view taken between", ro, analysis.RollupOf(joined([]*dataset.Store{st, kept})), mid)
	diffRollups(t, "the partial", ro, analysis.RollupOf(joined([]*dataset.Store{st, kept, flows})), folded(p))
}
