package figures

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/stats"
	"natpeek/internal/world"
)

// The figure tests run one mid-scale deployment and verify the paper's
// qualitative claims hold — this is the reproduction's core regression
// suite. The world is built once and shared (read-only) across tests.
var (
	once    sync.Once
	testW   *world.World
	testWin Windows

	allOnce sync.Once
	testAll []*Report
)

func study(t testing.TB) (*dataset.Store, Windows) {
	t.Helper()
	once.Do(func() {
		w := world.Build(world.Config{Seed: 7, Scale: 0.4, TrafficHomes: 10})
		if err := w.Run(); err != nil {
			panic(err)
		}
		testW = w
		testWin = DefaultWindows()
	})
	return testW.Store, testWin
}

// exhibit is the report figures.All prints under id for the shared
// study: the claim tests read what the paper's printer prints.
func exhibit(t *testing.T, id string) *Report {
	t.Helper()
	st, w := study(t)
	allOnce.Do(func() { testAll = All(st, w) })
	for _, r := range testAll {
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("All printed no %s", id)
	return nil
}

// field is the token a report line prints after " key=", up to the
// next space.
func field(t *testing.T, line, key string) string {
	t.Helper()
	_, rest, ok := strings.Cut(" "+line, " "+key+"=")
	if !ok {
		t.Fatalf("no %s= in %q", key, line)
	}
	v, _, _ := strings.Cut(rest, " ")
	return v
}

// num is field read as a number.
func num(t *testing.T, line, key string) float64 {
	t.Helper()
	x, err := strconv.ParseFloat(field(t, line, key), 64)
	if err != nil {
		t.Fatalf("%s= in %q: %v", key, line, err)
	}
	return x
}

func TestAllReportsNonEmpty(t *testing.T) {
	st, w := study(t)
	reports := All(st, w)
	if len(reports) != 21 {
		t.Fatalf("exhibits = %d, want 21", len(reports))
	}
	for _, r := range reports {
		if r.ID == "" || r.Title == "" {
			t.Fatalf("malformed report %+v", r)
		}
		if len(r.Lines) == 0 {
			t.Errorf("%s: no lines", r.ID)
		}
		s := r.String()
		if !strings.Contains(s, r.ID) {
			t.Errorf("%s: String() missing ID", r.ID)
		}
		if strings.Contains(s, "(no data)") || strings.Contains(s, "(no traffic data)") ||
			strings.Contains(s, "(no device data)") || strings.Contains(s, "(no samples)") {
			t.Errorf("%s: degenerate output:\n%s", r.ID, s)
		}
	}
}

// TestTable1DeploymentSplit: the deployment splits about 5:2 between
// developed and developing routers, with routers in every one of the
// paper's 10 developed and 9 developing countries (paper: 90 routers
// across 10 countries, 36 across 9), and each router is counted once.
func TestTable1DeploymentSplit(t *testing.T) {
	st, _ := study(t)
	r := exhibit(t, "Table 1")
	if len(r.Lines) != 2 {
		t.Fatalf("Table 1 has %d lines, want one per group:\n%s", len(r.Lines), r)
	}
	var totals [2]int
	for i, want := range []struct {
		group     string
		countries int
	}{{"developed", 10}, {"developing", 9}} {
		line := r.Lines[i]
		if !strings.HasPrefix(line, want.group+" ") {
			t.Fatalf("line %d is not the %s group: %q", i, want.group, line)
		}
		totals[i] = int(num(t, line, "total"))
		_, list, _ := strings.Cut(line, "(")
		present := 0
		for _, kv := range strings.Fields(strings.TrimSuffix(list, ")")) {
			if !strings.HasSuffix(kv, "=0") {
				present++
			}
		}
		if present != want.countries {
			t.Errorf("%s routers in %d countries, paper %d", want.group, present, want.countries)
		}
	}
	if sum := totals[0] + totals[1]; sum != len(st.RouterCountry) {
		t.Errorf("Table 1 counts %d routers, the deployment has %d", sum, len(st.RouterCountry))
	}
	if ratio := float64(totals[0]) / float64(totals[1]); ratio < 2 || ratio > 3 {
		t.Errorf("developed:developing = %d:%d (%.2f), paper 90:36 (2.5)", totals[0], totals[1], ratio)
	}
}

// TestTable2DatasetCoverage: Heartbeats and Capacity cover every router
// in all 19 countries, Heartbeats from Oct'12 to Apr'13; Uptime, Devices
// and WiFi come from the deployment's routers; Traffic only from the
// consenting US homes (paper: Heartbeats and Capacity 126, Uptime/Devices
// 113, WiFi 93, Traffic 25, US only).
func TestTable2DatasetCoverage(t *testing.T) {
	st, _ := study(t)
	r := exhibit(t, "Table 2")
	rows := map[string]string{}
	for _, l := range r.Lines {
		rows[strings.Fields(l)[0]] = l
	}
	row := func(name string) string {
		t.Helper()
		l, ok := rows[name]
		if !ok {
			t.Fatalf("Table 2 has no %s row:\n%s", name, r)
		}
		return l
	}
	routers := len(st.RouterCountry)
	for _, name := range []string{"Heartbeats", "Capacity"} {
		if n := int(num(t, row(name), "routers")); n != routers {
			t.Errorf("%s covers %d routers, the deployment %d", name, n, routers)
		}
		if c := int(num(t, row(name), "countries")); c != 19 {
			t.Errorf("%s covers %d countries, paper 19", name, c)
		}
	}
	for _, name := range []string{"Uptime", "Devices", "WiFi"} {
		if n := int(num(t, row(name), "routers")); n == 0 || n > routers {
			t.Errorf("%s covers %d routers of %d", name, n, routers)
		}
	}
	tr := row("Traffic")
	if n := int(num(t, tr, "routers")); n != 10 {
		t.Errorf("Traffic covers %d routers, the fixture's consenting homes are 10", n)
	}
	if c := int(num(t, tr, "countries")); c != 1 {
		t.Errorf("Traffic covers %d countries, paper US only", c)
	}
	if f := strings.Fields(row("Heartbeats")); f[3] != "2012-10-01" || f[5] != "2013-04-15" {
		t.Errorf("Heartbeats window %s – %s, paper Oct'12–Apr'13", f[3], f[5])
	}
}

// heartbeatsOf is st's availability over w, of its roster and its log:
// what Figs. 3–5 and Fig. 6's medians read, which no row changes.
func heartbeatsOf(st *dataset.Store, w analysis.AvailabilityWindow) *analysis.Availability {
	return new(analysis.Rollup).Availability(st.Heartbeats, analysis.NewRoster(st), w)
}

func TestFig3DevelopedVsDeveloping(t *testing.T) {
	st, w := study(t)
	a := heartbeatsOf(st, w.Availability)
	devMed := stats.Median(a.DowntimesPerDay(analysis.Developed))
	dvgMed := stats.Median(a.DowntimesPerDay(analysis.Developing))
	// Paper: developed median < 1/30 per day; developing > ~1/3 per day.
	if devMed > 0.15 {
		t.Fatalf("developed median %.3f/day too high", devMed)
	}
	if dvgMed < 0.3 {
		t.Fatalf("developing median %.3f/day too low", dvgMed)
	}
	if dvgMed < 8*devMed {
		t.Fatalf("group separation too weak: %.3f vs %.3f", devMed, dvgMed)
	}
}

func TestFig4MedianDurationAboutHalfHour(t *testing.T) {
	st, w := study(t)
	a := heartbeatsOf(st, w.Availability)
	dev, dvg := a.DowntimeDurations(analysis.Developed), a.DowntimeDurations(analysis.Developing)
	med := stats.Median(append(append([]float64{}, dev...), dvg...))
	// Paper: ≈30 minutes.
	if med < 12 || med > 90 {
		t.Fatalf("median downtime %.1f min, want ≈30", med)
	}
	// Developing tail longer.
	if stats.Quantile(dvg, 0.9) <= stats.Quantile(dev, 0.9) {
		t.Fatal("developing tail not longer")
	}
}

func TestFig5PoorestCountriesWorst(t *testing.T) {
	st, w := study(t)
	pts := heartbeatsOf(st, w.Availability).DowntimesByCountry(3)
	if len(pts) < 4 {
		t.Fatalf("only %d countries with ≥3 routers", len(pts))
	}
	byCode := map[string]analysis.CountryDowntime{}
	for _, p := range pts {
		byCode[p.Code] = p
	}
	in, us := byCode["IN"], byCode["US"]
	pk, ok := byCode["PK"]
	if !ok {
		t.Skip("PK below router threshold at this scale")
	}
	if in.MedianDowntimes <= us.MedianDowntimes || pk.MedianDowntimes <= us.MedianDowntimes {
		t.Fatalf("IN/PK not worse than US: %v %v %v", in, pk, us)
	}
	days := w.Availability.To.Sub(w.Availability.From).Hours() / 24
	pkPerDay := pk.MedianDowntimes / days
	if pkPerDay < 0.8 || pkPerDay > 4 {
		t.Fatalf("PK downtimes/day = %.2f, paper ≈2", pkPerDay)
	}
}

func TestFig6UptimeMedians(t *testing.T) {
	st, w := study(t)
	a := heartbeatsOf(st, w.Availability)
	us := a.MedianUptimeFraction("US")
	in := a.MedianUptimeFraction("IN")
	za := a.MedianUptimeFraction("ZA")
	if us < 0.95 {
		t.Fatalf("US uptime %.3f (paper 0.9825)", us)
	}
	if in < 0.6 || in > 0.9 {
		t.Fatalf("IN uptime %.3f (paper 0.7601)", in)
	}
	if za < 0.73 || za > 0.96 {
		t.Fatalf("ZA uptime %.3f (paper 0.8557)", za)
	}
	if !(us > za && za > in) {
		t.Fatalf("ordering broken: %.3f / %.3f / %.3f", us, za, in)
	}
}

func TestFig6FindsAllThreeModes(t *testing.T) {
	r := exhibit(t, "Figure 6")
	for _, m := range []string{"always-on", "appliance", "flaky-isp"} {
		found := false
		for _, l := range r.Lines {
			found = found || strings.HasPrefix(l, m+" ")
		}
		if !found {
			t.Errorf("mode %s missing from Fig 6 output:\n%s", m, r)
		}
	}
}

func TestFig7DeviceCounts(t *testing.T) {
	st, _ := study(t)
	uniq := analysis.RollupOf(st).UniqueDevicesPerHome()
	var xs []float64
	atLeast5 := 0
	for _, n := range uniq {
		xs = append(xs, float64(n))
		if n >= 5 {
			atLeast5++
		}
	}
	mean := stats.Mean(xs)
	if mean < 4.5 || mean > 9.5 {
		t.Fatalf("mean devices %.2f, paper ≈7", mean)
	}
	if frac := float64(atLeast5) / float64(len(xs)); frac < 0.5 {
		t.Fatalf("share ≥5 devices %.2f, paper >0.5", frac)
	}
}

func TestFig8WirelessDominatesAndDevelopedRicher(t *testing.T) {
	st, _ := study(t)
	byGroup := analysis.RollupOf(st).ConnectedByGroup(analysis.NewRoster(st))
	dev, dvg := byGroup[analysis.Developed], byGroup[analysis.Developing]
	if dev.Wireless.Mean <= dev.Wired.Mean || dvg.Wireless.Mean <= dvg.Wired.Mean {
		t.Fatal("wireless does not dominate wired")
	}
	if dev.Wired.Mean+dev.Wireless.Mean <= dvg.Wired.Mean+dvg.Wireless.Mean {
		t.Fatal("developed homes not richer in connected devices")
	}
	if dev.Wired.Mean <= dvg.Wired.Mean {
		t.Fatal("wired gap not larger in developed")
	}
	// §5.2: average wired ports used < 1 in both groups.
	if dev.Wired.Mean >= 2 || dvg.Wired.Mean >= 1 {
		t.Fatalf("wired averages too high: %.2f / %.2f", dev.Wired.Mean, dvg.Wired.Mean)
	}
}

func TestFig9Band24Dominates(t *testing.T) {
	st, _ := study(t)
	byGroup := analysis.RollupOf(st).ConnectedByGroup(analysis.NewRoster(st))
	for g, a := range byGroup {
		if a.W24.Mean <= a.W5.Mean {
			t.Fatalf("%v: 2.4 GHz (%.2f) not above 5 GHz (%.2f)", g, a.W24.Mean, a.W5.Mean)
		}
	}
}

func TestTable5AlwaysConnected(t *testing.T) {
	st, _ := study(t)
	shares := analysis.RollupOf(st).AlwaysConnected(analysis.NewRoster(st), 35*24*3600*1e9)
	dev := shares[analysis.Developed]
	dvg := shares[analysis.Developing]
	if dev.Homes == 0 || dvg.Homes == 0 {
		t.Fatal("groups empty")
	}
	// Paper: 43%/20% developed, 12%/12% developing.
	if dev.WiredShare < 0.2 || dev.WiredShare > 0.7 {
		t.Fatalf("developed wired share %.2f, paper 0.43", dev.WiredShare)
	}
	if dvg.WiredShare >= dev.WiredShare {
		t.Fatalf("developing wired share %.2f not below developed %.2f", dvg.WiredShare, dev.WiredShare)
	}
}

func TestFig10BandMedians(t *testing.T) {
	st, _ := study(t)
	b24, b5 := analysis.RollupOf(st).UniqueDevicesPerBand()
	m24, m5 := stats.Median(b24), stats.Median(b5)
	if m24 < 3 || m24 > 8 {
		t.Fatalf("2.4 GHz median %v, paper ≈5", m24)
	}
	if m5 > 3.5 {
		t.Fatalf("5 GHz median %v, paper ≈2", m5)
	}
	if m24 <= m5 {
		t.Fatal("band ordering broken")
	}
}

func TestFig11APMediansByGroup(t *testing.T) {
	st, _ := study(t)
	byGroup := analysis.RollupOf(st).VisibleAPsByGroup(analysis.NewRoster(st))
	devMed := stats.Median(byGroup[analysis.Developed])
	dvgMed := stats.Median(byGroup[analysis.Developing])
	if devMed < 8 || devMed > 32 {
		t.Fatalf("developed AP median %v, paper ≈20", devMed)
	}
	if dvgMed > 6 {
		t.Fatalf("developing AP median %v, paper ≈2", dvgMed)
	}
}

func TestFig12AppleOnTop(t *testing.T) {
	st, _ := study(t)
	hist := analysis.RollupOf(st).ManufacturerHistogram(100_000)
	if len(hist) < 5 {
		t.Fatalf("only %d manufacturer categories", len(hist))
	}
	// Paper: Apple most common; Netgear excluded entirely.
	if hist[0].Category != "Apple" {
		t.Fatalf("top category %v, paper says Apple", hist[0].Category)
	}
	for _, h := range hist {
		if h.Category == "Gateway" && h.Devices > hist[0].Devices {
			t.Fatal("gateway devices dominate — Netgear exclusion broken?")
		}
	}
}

func TestFig13WeekdayMoreDiurnal(t *testing.T) {
	st, _ := study(t)
	weekday, weekend := analysis.RollupOf(st).DiurnalDevices(analysis.NewRoster(st))
	wd, we := weekday.PeakToTroughRatio(), weekend.PeakToTroughRatio()
	if wd <= we {
		t.Fatalf("weekday ratio %.2f not above weekend %.2f", wd, we)
	}
	if wd < 1.15 {
		t.Fatalf("weekday barely diurnal: %.2f", wd)
	}
}

// TestFig14UtilizationBelowCapacity: over the collection window, one
// home's hourly mean peak tracks a daily cycle — the evening at least
// twice the small hours — and stays well below the link's capacity in
// both directions.
func TestFig14UtilizationBelowCapacity(t *testing.T) {
	r := exhibit(t, "Figure 14")
	if len(r.Lines) != 3 {
		t.Fatalf("Figure 14 has %d lines, want capacity, up and down:\n%s", len(r.Lines), r)
	}
	capacity := map[string]float64{"up": num(t, r.Lines[0], "up"), "down": num(t, r.Lines[0], "down")}
	for _, l := range r.Lines[1:] {
		dir := strings.Fields(l)[0]
		if m := num(t, l, "minutes"); m < 7*24*60 {
			t.Errorf("%s: %.0f minutes, want at least a week", dir, m)
		}
		var peak float64
		for _, hr := range []string{"00", "03", "06", "09", "12", "15", "18", "21"} {
			peak = max(peak, num(t, l, hr))
		}
		if peak > 0.75*capacity[dir] {
			t.Errorf("%s: hourly mean peak %.2f Mbps not well below capacity %.1f Mbps", dir, peak, capacity[dir])
		}
		evening := max(num(t, l, "18"), num(t, l, "21"))
		night := min(num(t, l, "03"), num(t, l, "06"))
		if evening < 2*night {
			t.Errorf("%s: evening %.2f Mbps not twice the small hours' %.2f Mbps", dir, evening, night)
		}
	}
}

func TestFig15MostHomesUnderHalf(t *testing.T) {
	st, _ := study(t)
	downUtils := analysis.RollupOf(st).Utilization("down")
	if len(downUtils) == 0 {
		t.Fatal("no saturation points")
	}
	under := 0
	for _, u := range downUtils {
		if u < 0.5 {
			under++
		}
	}
	if frac := float64(under) / float64(len(downUtils)); frac < 0.5 {
		t.Fatalf("only %.0f%% of homes under 50%% downlink utilization", frac*100)
	}
}

// TestFig16ContinuousUploaders: the homes whose uplink runs past its
// measured capacity are few (paper: two), each does so nearly all the
// time — a continuous uploader behind a bloated buffer — and they are
// exactly Fig. 15's uplinks above 1.0.
func TestFig16ContinuousUploaders(t *testing.T) {
	r := exhibit(t, "Figure 16")
	if strings.HasPrefix(r.Lines[0], "(") {
		t.Fatalf("no oversaturating home:\n%s", r)
	}
	if len(r.Lines) > 3 {
		t.Errorf("%d homes oversaturate their uplink, paper two", len(r.Lines))
	}
	for _, l := range r.Lines {
		if u := num(t, l, "util"); u <= 1 {
			t.Errorf("listed home at utilization %.2f: %q", u, l)
		}
		over, minutes, _ := strings.Cut(field(t, l, "minutes>capacity"), "/")
		o, _ := strconv.Atoi(over)
		m, _ := strconv.Atoi(minutes)
		if m == 0 || float64(o) < 0.9*float64(m) {
			t.Errorf("over capacity %s of %s minutes, want a continuous uploader: %q", over, minutes, l)
		}
	}
	var fig15 string
	for _, l := range exhibit(t, "Figure 15").Lines {
		if strings.HasPrefix(l, "uplink ") {
			fig15 = l
		}
	}
	if n := int(num(t, fig15, "homes>1.0")); n != len(r.Lines) {
		t.Errorf("Fig. 15 counts %d uplinks above 1.0, Fig. 16 lists %d homes", n, len(r.Lines))
	}
}

func TestFig17DominantDevice(t *testing.T) {
	st, _ := study(t)
	top := analysis.RollupOf(st).MeanTopShare()
	if top < 0.45 || top > 0.85 {
		t.Fatalf("mean top-device share %.2f, paper ≈0.60–0.65", top)
	}
}

func TestFig18ExpectedDomainsPresent(t *testing.T) {
	st, _ := study(t)
	pop, _ := analysis.RollupOf(st).PopularDomains(math.MaxInt)
	names := map[string]bool{}
	for _, p := range pop {
		names[p.Domain] = true
	}
	hits := 0
	for _, d := range []string{"google.com", "youtube.com", "facebook.com", "netflix.com", "hulu.com", "pandora.com"} {
		if names[d] {
			hits++
		}
	}
	if hits < 2 {
		t.Fatalf("only %d of the expected popular domains appear", hits)
	}
	if len(pop) < 15 {
		t.Fatalf("domain tail too short: %d", len(pop))
	}
}

func TestFig19VolumeVsConnections(t *testing.T) {
	st, _ := study(t)
	curves := analysis.RollupOf(st).DomainShares()
	top := curves.VolumeShare[0]
	if top < 0.2 || top > 0.6 {
		t.Fatalf("top domain volume share %.2f, paper ≈0.38", top)
	}
	if curves.ConnShareByVolRank[0] >= top {
		t.Fatalf("top-by-volume conn share %.2f not below volume share %.2f",
			curves.ConnShareByVolRank[0], top)
	}
	wl := analysis.RollupOf(st).WhitelistedVolumeShare()
	if wl < 0.5 || wl > 0.8 {
		t.Fatalf("whitelisted volume share %.2f, paper ≈0.65", wl)
	}
}

func TestFig20DistinctFingerprints(t *testing.T) {
	r := exhibit(t, "Figure 20")
	if len(r.Lines) < 2 {
		t.Fatalf("need ≥2 device mixes, got %d", len(r.Lines))
	}
}

// TestAblationGapThreshold is the downtime definition's ablation
// (DESIGN.md §4): as the heartbeat gap that counts as a downtime grows
// from 2 min to 1 h, the developed median falls, and developing homes
// stay far ahead at every threshold — the Fig. 3 gap is not an artefact
// of the paper's 10-min choice.
func TestAblationGapThreshold(t *testing.T) {
	st, w := study(t)
	prevDev := math.Inf(1)
	for _, thr := range []time.Duration{2 * time.Minute, 5 * time.Minute, 10 * time.Minute, 20 * time.Minute, time.Hour} {
		win := w.Availability
		win.Threshold = thr
		a := heartbeatsOf(st, win)
		dev, dvg := stats.Median(a.DowntimesPerDay(analysis.Developed)), stats.Median(a.DowntimesPerDay(analysis.Developing))
		t.Logf("threshold %-6s developed median %.3f/day, developing %.3f/day", thr, dev, dvg)
		if dev >= prevDev {
			t.Errorf("threshold %s: developed median %.3f/day did not fall from %.3f", thr, dev, prevDev)
		}
		if dvg < 5*dev {
			t.Errorf("threshold %s: developing %.3f/day not 5× developed %.3f/day", thr, dvg, dev)
		}
		prevDev = dev
	}
}

// TestMeanGiniDeterministic: Fig. 17's mean per-home Gini gives the same
// bits on every call, and the bits of stats.Gini averaged over the
// homes in order: gini walks each home's descending shares backwards
// where stats.Gini copies and sorts them, fig17 adds them in order, and
// the figure
// prints %.2f, so no golden would notice a difference in the last bits.
func TestMeanGiniDeterministic(t *testing.T) {
	var shares [][]float64
	var ginis []float64
	for h := 0; h < 300; h++ {
		sh := make([]float64, 2+h%4)
		rest := 1.0
		for i := range sh[:len(sh)-1] {
			sh[i] = rest * float64(1+(h*31+i*17)%97) / 100
			rest -= sh[i]
		}
		sh[len(sh)-1] = rest
		sort.Sort(sort.Reverse(sort.Float64Slice(sh))) // as DeviceShares gives them
		shares = append(shares, sh)
		ginis = append(ginis, stats.Gini(sh))
	}
	want := stats.Mean(ginis)
	for i := 0; i < 50; i++ {
		var sum float64
		for _, sh := range shares {
			g, ok := gini(sh)
			if !ok {
				t.Fatal("a home of two or more devices not counted")
			}
			sum += g
		}
		got := sum / float64(len(shares))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: mean Gini %v, stats.Gini's %v", i, got, want)
		}
	}
}
