package figures

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/geo"
	"natpeek/internal/rng"
	"natpeek/internal/stats"
)

// The page computes a few exhibits with less than it used to; these
// tests hold each against the way it was computed before.

// oracleKindCounts counts Table 2's rows straight off st's log and rows,
// in KindCounts' order: per row, the routers with beats or a row of its
// kind and the countries st registers them in.
func oracleKindCounts(st *dataset.Store) []analysis.KindCount {
	kinds := []map[string]bool{{}, {}, {}, {}, {}, {}}
	for _, id := range st.Heartbeats.Routers() {
		kinds[0][id] = true
	}
	for _, r := range st.Capacity {
		kinds[1][r.RouterID] = true
	}
	for _, r := range st.Uptime {
		kinds[2][r.RouterID] = true
	}
	for _, r := range st.Counts {
		kinds[3][r.RouterID] = true
	}
	for _, r := range st.WiFi {
		kinds[4][r.RouterID] = true
	}
	for _, r := range st.Flows {
		kinds[5][r.RouterID] = true
	}
	out := make([]analysis.KindCount, len(kinds))
	for i, ids := range kinds {
		countries := map[string]bool{}
		for id := range ids {
			countries[st.RouterCountry[id]] = true
		}
		out[i] = analysis.KindCount{Routers: len(ids), Countries: len(countries)}
	}
	return out
}

// oracleTable1 is Table 1 as it was made: its countries counted from a
// map of st's roster.
func oracleTable1(st *dataset.Store) string {
	perCountry := map[string]int{}
	for _, code := range st.RouterCountry {
		perCountry[code]++
	}
	var lines []string
	for _, grp := range []analysis.Group{analysis.Developed, analysis.Developing} {
		total := 0
		var parts []string
		for _, c := range geo.All() {
			if c.Developed == (grp == analysis.Developed) {
				total += perCountry[c.Code]
				parts = append(parts, fmt.Sprintf("%s=%d", c.Code, perCountry[c.Code]))
			}
		}
		lines = append(lines, fmt.Sprintf("%-10s total=%d  (%s)", grp, total, strings.Join(parts, " ")))
	}
	return strings.Join(lines, "\n")
}

// TestTable1CountsMatchRoster: Table 1 counted off the roster's index is
// the text counted from a map of the roster — over the seed-7 study, and
// over a roster with routers of a country geo does not know and of none.
func TestTable1CountsMatchRoster(t *testing.T) {
	study, _ := study(t)
	odd := dataset.NewStore()
	for id, code := range map[string]string{"a": "US", "b": "XX", "c": "", "d": "IN", "e": "XX", "f": "US"} {
		odd.RouterCountry[id] = code
	}
	for name, st := range map[string]*dataset.Store{"study": study, "unknown countries": odd} {
		if got, want := strings.Join(table1(analysis.NewRoster(st)).Lines, "\n"), oracleTable1(st); got != want {
			t.Errorf("%s: Table 1\n%s\ncounted from the roster's map\n%s", name, got, want)
		}
	}
}

// TestTable2CountsMatchStore: the carried Table 2 counts equal counts
// taken straight off the log and the rows — over the study, over a
// loadgen mix with routers the roster lacks, and on live pages over a
// sealed history and a tail that grows between them, each carrying the
// last page's counts, with beats from routers with rows, routers the
// roster alone names and routers nothing else names.
func TestTable2CountsMatchStore(t *testing.T) {
	check := func(what string, st *dataset.Store, v *analysis.Rollup, ro *analysis.Roster) {
		t.Helper()
		got := kindCounts(st, v, ro)
		if want := oracleKindCounts(st); fmt.Sprint(got[:]) != fmt.Sprint(want) {
			t.Errorf("%s: KindCounts %v, counted off the rows %v", what, got, want)
		}
	}
	study, _ := study(t)
	check("study", study, analysis.RollupOf(study), analysis.NewRoster(study))
	mix := dataset.NewStore()
	loadgenMix(mix, rng.New(12), 0, 2_000, 96, 0.65)
	for id := range mix.RouterCountry {
		if id < "load-00010" {
			delete(mix.RouterCountry, id)
		}
	}
	check("loadgen mix, ten routers unregistered", mix, analysis.RollupOf(mix), analysis.NewRoster(mix))

	d := fixtureDashboard(t, 3_000, 200, 96)
	inc := rng.New(13).Child("increment")
	hb := d.src.HeartbeatLog()
	for i := 0; i < 6; i++ {
		d.src.Append("increment", func(dst *dataset.Store) { loadgenMix(dst, inc, 96+i*8, 8, 104, 0.65) })
		at := dataset.HeartbeatsFrom.Add(time.Duration(i) * time.Hour)
		hb.Record(fmt.Sprintf("load-%05d", i*7), at)
		hb.Record(fmt.Sprintf("load-%05d", 200+i%2), at)
		hb.Record(fmt.Sprintf("beats-only-%d", i%3), at)
		_, ro, v, _ := d.snapshot()
		check(fmt.Sprintf("page %d", i), d.src.Merge(), v, ro)
	}
}

// cdfLineByQuantile is a CDF line as it was made: five stats.Quantile
// calls, each selecting over its own copy, formatted with fmt.
func cdfLineByQuantile(xs []float64, unit string) string {
	if len(xs) == 0 {
		return "(no samples)"
	}
	var parts []string
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90} {
		parts = append(parts, fmt.Sprintf("p%02.0f=%.3g%s", q*100, stats.Quantile(xs, q), unit))
	}
	return strings.Join(parts, "  ")
}

// TestCDFLineMatchesQuantile: a sorted sample read at five points
// (cdfSorted) gives the text five Quantile selections gave — on samples
// of every size up to a few hundred, with ties, NaNs, infinities and
// negative values.
func TestCDFLineMatchesQuantile(t *testing.T) {
	s := rng.New(14)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 1e-9, 123456789}
	for n := 0; n < 400; n += 1 + n/8 {
		for trial := 0; trial < 4; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				switch s.Intn(6) {
				case 0:
					xs[i] = special[s.Intn(len(special))]
				case 1, 2:
					xs[i] = float64(s.Intn(4)) // ties
				default:
					xs[i] = s.Range(-1e3, 1e6)
				}
			}
			sorted := append([]float64(nil), xs...)
			stats.SortFloats(sorted)
			if got, want := cdfSorted(sorted, "m"), cdfLineByQuantile(xs, "m"); got != want {
				t.Fatalf("n=%d: cdfSorted %q, five Quantiles %q over %v", n, got, want, xs)
			}
		}
	}
}

// TestOversaturatedRowMatchesFmt: Fig. 16's strconv row is the line fmt
// formatted, for ordinary values and for the ones fmt spells out.
func TestOversaturatedRowMatchesFmt(t *testing.T) {
	s := rng.New(15)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 0.005, 0.015, 2.675, 1e21, 5e-324}
	value := func() float64 {
		if s.Intn(4) == 0 {
			return special[s.Intn(len(special))]
		}
		return s.Range(-1e9, 1e9) / math.Pow(10, float64(s.Intn(12)))
	}
	for i := 0; i < 20_000; i++ {
		ls := analysis.LinkSaturation{RouterID: fmt.Sprintf("load-%05d", s.Intn(1000)), Dir: "up",
			CapacityBps: value(), P95Bps: value(), Utilization: value(),
			Minutes: s.Intn(1 << 20), MinutesOver: s.Intn(1<<20) - 10}
		want := fmt.Sprintf("home=%s upCapacity=%.2f Mbps p95=%.2f Mbps util=%.2f  minutes>capacity=%d/%d",
			ls.RouterID, ls.CapacityBps/1e6, ls.P95Bps/1e6, ls.Utilization, ls.MinutesOver, ls.Minutes)
		if got := string(analysis.AppendOversaturated(nil, &ls)); got != want {
			t.Fatalf("row %q, fmt %q", got, want)
		}
	}
}

// FuzzAppendFixed2: appendFixed2 writes what strconv.AppendFloat(…,
// 'f', 2, 64) writes, for every float64: the seeds hold exact ties at
// the hundredths, values that round up into a new digit, the edges of
// its fast range and the values it leaves to AppendFloat.
func FuzzAppendFixed2(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 0.125, 0.375, -0.625, 2.675, 1.005, 9.995, 99.995, 0.095,
		0.0995, 0.005, 0.01, 0.009999999999999998, 0.1, 0.09999999999999999, 1, 0.995, 999.995, 1e15, 1e15 - 0.125,
		999999999999999.9, 123456789.125, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if got, want := string(stats.AppendFixed2([]byte("x"), v)), string(strconv.AppendFloat([]byte("x"), v, 'f', 2, 64)); got != want {
			t.Fatalf("appendFixed2(%v) = %q, AppendFloat %q", v, got, want)
		}
	})
}

// TestAppendFixed2MatchesAppendFloat: appendFixed2 against AppendFloat
// over random magnitudes across its fast range and past it, and over
// eighths k/8 up to 10^6, a random one in four or so — among them the
// exact ties at the hundredths, x.125, x.375, x.625 and x.875.
func TestAppendFixed2MatchesAppendFloat(t *testing.T) {
	s := rng.New(18)
	check := func(v float64) {
		t.Helper()
		if got, want := string(stats.AppendFixed2(nil, v)), strconv.FormatFloat(v, 'f', 2, 64); got != want {
			t.Fatalf("appendFixed2(%v) = %q, AppendFloat %q", v, got, want)
		}
	}
	for i := 0; i < 300_000; i++ {
		v := math.Float64frombits(s.Uint64())
		if i%2 == 0 {
			v = s.Range(-1, 1) * math.Pow(10, float64(s.Intn(21)-4))
		}
		check(v)
	}
	for k := 0; k < 8_000_000; k += 1 + s.Intn(7) {
		check(float64(k) / 8)
	}
}

// TestReportSizeIsItsRendering: size is the length of what String and
// pageText write of a report — every exhibit of a page, and reports
// without a claim or lines — so that the buffer they size is the one
// they fill.
func TestReportSizeIsItsRendering(t *testing.T) {
	st, w := study(t)
	reports := append(All(st, w), &Report{}, &Report{ID: "X", Title: "no claim", Lines: []string{"", "a line"}})
	for _, r := range reports {
		if got, n := len(r.String()), r.size(); got != n {
			t.Errorf("%s: String writes %d bytes, size says %d", r.ID, got, n)
		}
	}
}
