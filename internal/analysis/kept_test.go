package analysis

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/geo"
	"natpeek/internal/heartbeat"
	"natpeek/internal/mac"
	"natpeek/internal/ouidb"
	"natpeek/internal/rng"
	"natpeek/internal/stats"
)

// keptMix draws a store of every kept kind with the shapes that make a
// fold's exactness hard: routers of unknown country and routers missing
// from the roster, rows of one router spread over many runs, repeated
// minutes and report instants, zero and negative capacities, throughput
// in directions that are neither "up" nor "down", device kinds out of
// range, and censuses over several weeks.
func keptMix(s *rng.Stream, routers, rows int) *dataset.Store {
	st := dataset.NewStore()
	codes := geo.All()
	start := time.Date(2013, 3, 25, 0, 0, 0, 0, time.UTC)
	id := func(i int) string { return fmt.Sprintf("mix-%03d", i) }
	for i := 0; i < routers; i++ {
		switch i % 7 {
		case 5: // not in the roster
		case 6:
			st.RouterCountry[id(i)] = "XX" // unknown to geo
		default:
			st.RouterCountry[id(i)] = codes[i%len(codes)].Code
		}
		st.Heartbeats.RecordRun(id(i), heartbeat.Run{Start: start, Interval: 10 * time.Minute, Count: 1 + s.Intn(400)})
		gap := start.Add(time.Duration(80+s.Intn(200)) * time.Hour)
		st.Heartbeats.RecordRun(id(i), heartbeat.Run{Start: gap, Interval: 10 * time.Minute, Count: 1 + s.Intn(400)})
	}
	for n := 0; n < rows; {
		r := s.Intn(routers)
		at := start.Add(time.Duration(s.Intn(5*7*48)) * 30 * time.Minute).Add(time.Duration(s.Intn(3)) * 7 * time.Minute)
		run := 1 + s.Intn(6)
		for j := 0; j < run; j++ {
			n++
			switch s.Intn(6) {
			case 0:
				st.Uptime = append(st.Uptime, dataset.UptimeReport{RouterID: id(r), ReportedAt: at,
					Uptime: time.Duration(s.Intn(3*24*60)) * time.Minute})
			case 1:
				st.Capacity = append(st.Capacity, dataset.CapacityMeasure{RouterID: id(r), MeasuredAt: at,
					UpBps: float64(s.Intn(5) - 1), DownBps: s.Range(-1e6, 1e8)})
			case 2:
				st.Counts = append(st.Counts, dataset.DeviceCount{RouterID: id(r), At: at,
					Wired: s.Intn(6), W24: s.Intn(7), W5: s.Intn(4)})
			case 3:
				st.Sightings = append(st.Sightings, dataset.DeviceSighting{RouterID: id(r), At: at,
					Device: mac.FromOUI(0x001CB3, uint32(r*10+s.Intn(8))), Kind: dataset.ConnKind(s.Intn(4))})
			case 4:
				st.WiFi = append(st.WiFi, dataset.WiFiScan{RouterID: id(r), At: at,
					Band: []string{"2.4GHz", "5GHz"}[s.Intn(2)], VisibleAPs: s.Intn(30)})
			default:
				st.Throughput = append(st.Throughput, dataset.ThroughputSample{RouterID: id(r),
					Minute: at.Add(time.Duration(s.Intn(4)) * time.Minute),
					Dir:    []string{"up", "down", "up", "down", "sideways"}[s.Intn(5)], PeakBps: s.Range(0, 2e7)})
			}
		}
	}
	return st
}

// chunksOf cuts every kind of st into n contiguous chunks, the roster in
// the last, so routers' rows arrive before their country does.
func chunksOf(st *dataset.Store, n int) []*dataset.Store {
	out := make([]*dataset.Store, n)
	for i := range out {
		out[i] = &dataset.Store{RouterCountry: map[string]string{}}
		for _, k := range dataset.Kinds {
			l := k.Len(st)
			k.Window(out[i], st, i*l/n, (i+1)*l/n)
		}
	}
	out[n-1].RouterCountry = st.RouterCountry
	return out
}

// TestKeptMatchesOracles: every kept-kind exhibit read off a Rollup
// equals the row scan it replaced — over the whole store folded at once,
// and over the store folded chunk by chunk into a Partial with its last
// chunk laid over as a page's tail — to the bit, but for Figs. 8/9's
// deviation, whose oracle sums squared float deviations in row order.
func TestKeptMatchesOracles(t *testing.T) {
	stores := map[string]*dataset.Store{"fixture": fixtureStore()}
	for seed := uint64(1); seed <= 4; seed++ {
		stores[fmt.Sprintf("mix %d", seed)] = keptMix(rng.New(seed).Child("kept"), 3+int(seed)*9, 400*int(seed))
	}
	for name, st := range stores {
		ro := NewRoster(st)
		batch := RollupOf(st)
		chunks := chunksOf(st, 4)
		p := NewPartial()
		for _, c := range chunks[:3] {
			p.Fold(c)
		}
		sn := NewSnapshot(chunks[3])
		sn.Capture(p)
		page := sn.Rollup()
		if pr := NewRoster(sn.Store(st.Heartbeats)); !reflect.DeepEqual(pr, ro) {
			t.Fatalf("%s: the page's roster differs", name)
		}
		// A live base is read after every seal, so its samples are split
		// into several sorted runs, not one.
		live := NewPartial()
		for _, c := range chunksOf(st, 13) {
			live.Fold(c)
			NewSnapshot(dataset.NewStore()).Capture(live)
		}
		paged := NewSnapshot(dataset.NewStore())
		paged.Capture(live)
		for view, v := range map[string]*Rollup{"batch": batch, "page": page, "paged": paged.Rollup()} {
			what := name + ", " + view
			same := func(exhibit string, want, got any) {
				t.Helper()
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: %s differs:\n oracle %v\n rollup %v", what, exhibit, want, got)
				}
			}
			same("UniqueDevicesPerHome", oracleUniqueDevicesPerHome(st), v.UniqueDevicesPerHome())
			w24, w5 := oracleUniqueDevicesPerBand(st)
			g24, g5 := v.UniqueDevicesPerBand()
			same("UniqueDevicesPerBand", [2][]float64{w24, w5}, [2][]float64{g24, g5})
			for _, span := range []time.Duration{0, 24 * time.Hour, 21 * 24 * time.Hour} {
				same(fmt.Sprintf("AlwaysConnected(%v)", span), oracleAlwaysConnected(st, span), v.AlwaysConnected(ro, span))
			}
			same("VisibleAPsByGroup", oracleVisibleAPsByGroup(st), v.VisibleAPsByGroup(ro))
			same("AllFourPortsShares", oracleAllFourPortsShares(st), v.AllFourPortsShares(ro))
			wd, we := oracleDiurnalDevices(st)
			gd, ge := v.DiurnalDevices(ro)
			same("DiurnalDevices", [2]any{wd, we}, [2]any{gd, ge})
			same("Saturation", oracleSaturation(st), linksOf(v))
			wa := AvailabilityWindow{From: time.Date(2013, 3, 25, 0, 0, 0, 0, time.UTC), To: time.Date(2013, 4, 30, 0, 0, 0, 0, time.UTC)}
			gx := NewGapIndex(st.Heartbeats, wa)
			for _, id := range st.Routers() {
				wu, wd := oracleHomeCapacity(st, id)
				gu, gd := v.HomeCapacity(id)
				same("HomeCapacity("+id+")", [2]float64{wu, wd}, [2]float64{gu, gd})
				for _, dir := range []string{"up", "down"} {
					same("UtilizationSeries("+id+", "+dir+")", oracleUtilizationSeries(st, id, dir), seriesOf(t, v, id, dir))
				}
				same("ClassifyAvailability("+id+")", oracleClassifyAvailability(st, id, wa), v.ClassifyAvailability(gx, id))
				for h := 0; h < 36*24; h += 5 {
					d := heartbeat.Downtime{Start: wa.From.Add(time.Duration(h) * time.Hour)}
					d.End = d.Start.Add(time.Duration(1+h%7) * 30 * time.Minute)
					same("ClassifyDowntime("+id+")", oracleClassifyDowntime(st, id, d), v.ClassifyDowntime(id, d))
				}
			}
			for _, g := range []Group{Developed, Developing} {
				same(fmt.Sprintf("DowntimeCauses(%v)", g), oracleDowntimeCauses(st, ro, g, wa), v.DowntimeCauses(gx, ro, g))
			}
			want, got := oracleConnectedByGroup(st), v.ConnectedByGroup(ro)
			if len(want) != len(got) {
				t.Errorf("%s: ConnectedByGroup has %d groups, oracle %d", what, len(got), len(want))
			}
			for g, w := range want {
				gg := got[g]
				for series, pair := range map[string][2]stats.Summary{"wired": {w.Wired, gg.Wired},
					"wireless": {w.Wireless, gg.Wireless}, "2.4GHz": {w.W24, gg.W24}, "5GHz": {w.W5, gg.W5}} {
					ws, gs := pair[0], pair[1]
					if math.Abs(ws.Stddev-gs.Stddev) > 1e-12*ws.Stddev {
						t.Errorf("%s: ConnectedByGroup %v %s stddev %v, oracle %v", what, g, series, gs.Stddev, ws.Stddev)
					}
					ws.Stddev, gs.Stddev = 0, 0
					same(fmt.Sprintf("ConnectedByGroup %v %s", g, series), ws, gs)
				}
			}
		}
	}
}

// seriesOf collects what UtilizationSeries reads, nil for no points, and
// checks the count it returns.
func seriesOf(t testing.TB, v *Rollup, id, dir string) []UtilizationPoint {
	t.Helper()
	var out []UtilizationPoint
	if n := v.UtilizationSeries(id, dir, func(p UtilizationPoint) { out = append(out, p) }); n != len(out) {
		t.Fatalf("UtilizationSeries(%s, %s) read %d points and counted %d", id, dir, len(out), n)
	}
	return out
}

// throughputChunk is k upstream throughput samples of router id, a
// minute apart from minute m on.
func throughputChunk(id string, m, k int) *dataset.Store {
	c := dataset.NewStore()
	start := time.Date(2013, 3, 25, 0, 0, 0, 0, time.UTC)
	for i := m; i < m+k; i++ {
		c.Throughput = append(c.Throughput, dataset.ThroughputSample{RouterID: id,
			Minute: start.Add(time.Duration(i) * time.Minute), Dir: "up", PeakBps: float64(i%97) * 1e4})
	}
	c.Capacity = append(c.Capacity, dataset.CapacityMeasure{RouterID: id, MeasuredAt: start.Add(time.Duration(m) * time.Minute),
		UpBps: 5e5, DownBps: 1e6})
	return c
}

// TestLiveSeriesAllocatesItsSize: a base read after every seal, as a
// live dashboard's is, holds its throughput series in about its own
// size — what the heap keeps grows with the points, not with the points
// times the seals — and its sorted samples in a handful of runs; and
// every page keeps reading what it captured while later seals append
// behind it.
func TestLiveSeriesAllocatesItsSize(t *testing.T) {
	const seals, k = 1000, 5
	chunks := make([]*dataset.Store, seals)
	for i := range chunks {
		chunks[i] = throughputChunk("r", i*k, k)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := NewPartial()
	var pages []*Rollup
	for i, c := range chunks {
		p.Fold(c)
		sn := NewSnapshot(dataset.NewStore())
		sn.Capture(p)
		if i%200 == 0 {
			pages = append(pages, sn.Rollup())
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(chunks)

	p.roll.freeze()
	h := p.roll.homes[p.roll.byID["r"]]
	s := h.links[0].series
	t.Logf("%d points in %d blocks; peaks in %d runs, capacities in %d; %d bytes kept",
		s.n, len(s.blocks), len(h.links[0].peaks.runs), len(h.capUp.runs), kept)
	// A point is 24 bytes in its series and 8 as a peak; the capacities
	// are two more values per seal.
	if size := int64(s.n)*32 + seals*16; kept > 2*size+64<<10 {
		t.Errorf("%d points (%d bytes) keep %d bytes of heap", s.n, size, kept)
	}
	logN := bits.Len(uint(s.n))
	if len(s.blocks) > 4*logN || len(h.links[0].peaks.runs) > logN+1 || len(h.capUp.runs) > logN+1 {
		t.Errorf("%d blocks, %d and %d runs for %d points", len(s.blocks), len(h.links[0].peaks.runs), len(h.capUp.runs), s.n)
	}
	for i, v := range pages {
		want := oracleUtilizationSeries(throughputChunk("r", 0, (i*200+1)*k), "r", "up")
		if got := seriesOf(t, v, "r", "up"); !reflect.DeepEqual(got, want) {
			t.Fatalf("page %d: reads %d points, want %d", i, len(got), len(want))
		}
	}
}

// TestClonesAppendApart: a clone and its original share the series they
// had and then fold different rows; neither reads the other's.
func TestClonesAppendApart(t *testing.T) {
	p := NewPartial()
	p.Fold(throughputChunk("r", 0, 10))
	NewSnapshot(dataset.NewStore()).Capture(p) // the next fold copies a version
	p.Fold(throughputChunk("r", 10, 3))        // room to spare in the last block
	q := p.Clone()
	p.Fold(throughputChunk("r", 100, 2))
	q.Fold(throughputChunk("r", 200, 2))
	for name, c := range map[string]struct {
		p    *Partial
		next int
	}{"original": {p, 100}, "clone": {q, 200}} {
		want := throughputChunk("r", 0, 13)
		want.Throughput = append(want.Throughput, throughputChunk("r", c.next, 2).Throughput...)
		sn := NewSnapshot(dataset.NewStore())
		sn.Capture(c.p)
		if got, w := seriesOf(t, sn.Rollup(), "r", "up"), oracleUtilizationSeries(want, "r", "up"); !reflect.DeepEqual(got, w) {
			t.Errorf("%s reads %v, want %v", name, got, w)
		}
	}
}

// TestCaptureAfterSealIsHistoryFree: the first capture after a seal
// settles what the seal folded — sorts it and merges sorted runs — and
// what that allocates, over many seals, does not follow the history
// beneath: four times the history, the same bytes within 10 %.
func TestCaptureAfterSealIsHistoryFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const routers, seals, k = 64, 32, 4
	id := func(r int) string { return fmt.Sprintf("r%02d", r) }
	var bytes [2]float64
	for i, history := range []int{2_000, 8_000} {
		p := NewPartial()
		for r := 0; r < routers; r++ {
			p.Fold(throughputChunk(id(r), 0, history))
		}
		NewSnapshot(dataset.NewStore()).Capture(p)
		var total uint64
		for seal := 0; seal < seals; seal++ {
			for r := 0; r < routers; r++ {
				p.Fold(throughputChunk(id(r), history+seal*k, k))
			}
			sn := NewSnapshot(dataset.NewStore())
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sn.Capture(p)
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
		bytes[i] = float64(total) / seals
	}
	t.Logf("bytes per capture after a seal: %.0f with %d points per link, %.0f with 4×", bytes[0], 2_000, bytes[1])
	if bytes[1] > bytes[0]*1.1 {
		t.Errorf("capture bytes grew with history: %.0f → %.0f", bytes[0], bytes[1])
	}
}

// TestUtilizationSeriesMergesRuns: a series read by merging its base's
// and its tail's ascending runs is the rows sorted by minute with the
// rows of one minute in row order — for series of one run to more runs
// than UtilizationSeries keeps cursors for without allocating, with
// minutes repeated within and across runs, folded in chunks with a page
// after each and the last chunk as the page's tail.
func TestUtilizationSeriesMergesRuns(t *testing.T) {
	s := rng.New(16).Child("series")
	start := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	for trial := 0; trial < 60; trial++ {
		st := dataset.NewStore()
		descents := s.Intn(40)
		at := 0
		for run := 0; run <= descents; run++ {
			at = s.Intn(50) // back to an earlier minute, or to the same
			for k := 1 + s.Intn(6); k > 0; k-- {
				at += s.Intn(2) // repeats within a run
				st.Throughput = append(st.Throughput, dataset.ThroughputSample{RouterID: "r",
					Minute: start.Add(time.Duration(at) * time.Minute), Dir: "up", PeakBps: float64(len(st.Throughput))})
			}
		}
		want := oracleUtilizationSeries(st, "r", "up")
		chunks := chunksOf(st, 1+s.Intn(4))
		p := NewPartial()
		for _, c := range chunks[:len(chunks)-1] {
			p.Fold(c)
			NewSnapshot(dataset.NewStore()).Capture(p)
		}
		sn := NewSnapshot(chunks[len(chunks)-1])
		sn.Capture(p)
		for view, v := range map[string]*Rollup{"batch": RollupOf(st), "page": sn.Rollup()} {
			if got := seriesOf(t, v, "r", "up"); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %s: read %v, want %v", trial, view, got, want)
			}
		}
	}
}

// TestManufacturerHistogramMatchesLookups: Fig. 12's counts from the
// categories the fold resolved equal a per-page ouidb lookup of every
// fleet device's category over its whole volume — on pages whose tail
// adds volume to base devices across the floor, adds devices, and takes
// volume off (negative byte counts), at floors below, at and above the
// volumes. Fig. 20's picks over the same pages equal the batch's.
func TestManufacturerHistogramMatchesLookups(t *testing.T) {
	byLookup := func(v *Rollup, minBytes int64) []ManufacturerCount {
		counts := map[ouidb.Category]int{}
		for _, d := range fleetTotals(v) {
			if d.bytes < minBytes || ouidb.IsBISmarkRouter(d.dev) {
				continue
			}
			if cat := ouidb.Lookup(d.dev).Category; cat != ouidb.CatUnknown {
				counts[cat]++
			}
		}
		var out []ManufacturerCount
		for cat, n := range counts {
			out = append(out, ManufacturerCount{Category: cat, Devices: n})
		}
		slices.SortFunc(out, func(a, b ManufacturerCount) int {
			if a.Devices != b.Devices {
				return b.Devices - a.Devices
			}
			return strings.Compare(string(a.Category), string(b.Category))
		})
		return out
	}
	ouis := []uint32{0x001CB3, 0x204E7F, 0x123456}
	for _, o := range []string{"Intel", "Samsung", "Microsoft", "Roku"} {
		ouis = append(ouis, ouidb.OUIsFor(o)...)
	}
	s := rng.New(17).Child("fleet")
	flows := func(n int, sign int64) *dataset.Store {
		st := dataset.NewStore()
		for i := 0; i < n; i++ {
			st.Flows = append(st.Flows, dataset.FlowRecord{RouterID: fmt.Sprintf("h%d", s.Intn(6)),
				Device: mac.FromOUI(ouis[s.Intn(len(ouis))], uint32(s.Intn(40))), Domain: fmt.Sprintf("d%d", s.Intn(9)),
				UpBytes: sign * int64(s.Intn(60_000))})
		}
		return st
	}
	for trial := 0; trial < 20; trial++ {
		p := NewPartial()
		first := flows(200, 1)
		p.Fold(first)
		tail := flows(60, 1)
		if trial%4 == 3 {
			tail.Flows = append(tail.Flows, flows(10, -1).Flows...)
		}
		base := NewSnapshot(dataset.NewStore())
		base.Capture(p)
		sn := NewSnapshot(tail)
		sn.Capture(p)
		for view, v := range map[string]*Rollup{"base": base.Rollup(), "page": sn.Rollup()} {
			for _, floor := range []int64{0, 1, 100_000, 200_000, math.MaxInt64} {
				if got, want := v.ManufacturerHistogram(floor), byLookup(v, floor); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, %s, floor %d: %v, by lookup %v", trial, view, floor, got, want)
				}
			}
		}
		// Fig. 20 reads the same fleet without copying it, and devices
		// that several homes share, or whose volume the tail takes off,
		// as the batch reads them.
		all := RollupOf(&dataset.Store{Flows: append(slices.Clone(first.Flows), tail.Flows...)})
		page := sn.Rollup()
		for _, k := range []int{1, 4, math.MaxInt} {
			if got, want := page.TopDevices(k), all.TopDevices(k); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: TopDevices(%d) %v, batch %v", trial, k, got, want)
			}
		}
		for _, dev := range all.TopDevices(6) {
			for _, k := range []int{1, 4, math.MaxInt} {
				if got, want := page.DeviceDomains(dev, k), all.DeviceDomains(dev, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: DeviceDomains(%s, %d) %v, batch %v", trial, dev, k, got, want)
				}
			}
		}
	}
}

// fleetTotals is every device of v's fleet with its volume across the
// homes it is in, base and tail added.
func fleetTotals(v *Rollup) []deviceTotals {
	var out []deviceTotals
	v.fleet.each(func(_ int32, d deviceTotals) { out = append(out, d) })
	if o := v.tail; o != nil {
		o.roll.fleet.each(func(j int32, d deviceTotals) {
			if i := o.fleet[j]; i >= 0 {
				out[i].bytes += d.bytes
			} else {
				out = append(out, d)
			}
		})
	}
	return out
}
