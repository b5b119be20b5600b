// Package figures regenerates every table and figure of the paper's
// evaluation from a dataset.Store. Each function returns a Report whose
// lines are the same rows/series the paper plots, alongside the paper's
// own headline numbers so reproduction quality is visible at a glance.
//
// The benches in the repository root print one Report per paper exhibit;
// EXPERIMENTS.md records paper-vs-measured for each.
package figures

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/geo"
	"natpeek/internal/stats"
)

// Report is one regenerated exhibit.
type Report struct {
	ID         string // e.g. "Figure 3"
	Title      string
	PaperClaim string // the paper's reported result, for comparison
	Lines      []string
}

func (r *Report) add(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.PaperClaim != "" {
		fmt.Fprintf(&b, "   paper: %s\n", r.PaperClaim)
	}
	for _, l := range r.Lines {
		fmt.Fprintf(&b, "   %s\n", l)
	}
	return b.String()
}

// Windows bundles the analysis windows (defaults = Table 2).
type Windows struct {
	Availability analysis.AvailabilityWindow
}

// DefaultWindows returns the paper's windows.
func DefaultWindows() Windows {
	return Windows{
		Availability: analysis.AvailabilityWindow{
			From: dataset.HeartbeatsFrom,
			To:   dataset.HeartbeatsTo,
		},
	}
}

// cdfLine formats an empirical CDF as quantile points.
func cdfLine(xs []float64, unit string) string {
	if len(xs) == 0 {
		return "(no samples)"
	}
	qs := []float64{0.10, 0.25, 0.50, 0.75, 0.90}
	parts := make([]string, 0, len(qs))
	for _, q := range qs {
		parts = append(parts, fmt.Sprintf("p%02.0f=%.3g%s", q*100, stats.Quantile(xs, q), unit))
	}
	return strings.Join(parts, "  ")
}

// Table1 reproduces the deployment roster.
func Table1(st *dataset.Store) *Report {
	r := &Report{
		ID:         "Table 1",
		Title:      "Classification of countries based on GDP per capita",
		PaperClaim: "90 developed routers across 10 countries; 36 developing across 9",
	}
	perCountry := map[string]int{}
	for _, code := range st.RouterCountry {
		perCountry[code]++
	}
	for _, grp := range []analysis.Group{analysis.Developed, analysis.Developing} {
		total := 0
		var parts []string
		for _, c := range geo.All() {
			if c.Developed != (grp == analysis.Developed) {
				continue
			}
			n := perCountry[c.Code]
			total += n
			parts = append(parts, fmt.Sprintf("%s=%d", c.Code, n))
		}
		r.add("%-10s total=%d  (%s)", grp, total, strings.Join(parts, " "))
	}
	return r
}

// Table2 reproduces the data set inventory.
func Table2(st *dataset.Store) *Report { return table2(st, analysis.RollupFlows(st)) }

func table2(st *dataset.Store, flows *analysis.FlowRollup) *Report {
	r := &Report{
		ID:         "Table 2",
		Title:      "Summary of data collected",
		PaperClaim: "Heartbeats 126 routers Oct'12–Apr'13; Uptime/Devices 113; WiFi 93; Traffic 25; Capacity 126",
	}
	distinct := func(ids map[string]bool) int { return len(ids) }
	hb := map[string]bool{}
	for _, id := range st.Heartbeats.Routers() {
		hb[id] = true
	}
	up, cp, dv, wf, tr := map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, x := range st.Uptime {
		up[x.RouterID] = true
	}
	for _, x := range st.Capacity {
		cp[x.RouterID] = true
	}
	for _, x := range st.Counts {
		dv[x.RouterID] = true
	}
	for _, x := range st.WiFi {
		wf[x.RouterID] = true
	}
	for _, id := range flows.Homes() {
		tr[id] = true
	}
	countries := func(ids map[string]bool) int {
		cs := map[string]bool{}
		for id := range ids {
			cs[st.RouterCountry[id]] = true
		}
		return len(cs)
	}
	row := func(name string, ids map[string]bool, from, to time.Time) {
		r.add("%-11s routers=%-4d countries=%-3d %s – %s",
			name, distinct(ids), countries(ids),
			from.Format("2006-01-02"), to.Format("2006-01-02"))
	}
	row("Heartbeats", hb, dataset.HeartbeatsFrom, dataset.HeartbeatsTo)
	row("Capacity", cp, dataset.CapacityFrom, dataset.CapacityTo)
	row("Uptime", up, dataset.UptimeFrom, dataset.UptimeTo)
	row("Devices", dv, dataset.DevicesFrom, dataset.DevicesTo)
	row("WiFi", wf, dataset.WiFiFrom, dataset.WiFiTo)
	row("Traffic", tr, dataset.TrafficFrom, dataset.TrafficTo)
	return r
}

// Fig3 reproduces the downtime-frequency CDF.
func Fig3(st *dataset.Store, w Windows) *Report {
	r := &Report{
		ID:         "Figure 3",
		Title:      "Average number of downtimes per day (≥10 min), by group",
		PaperClaim: "developed median gap > a month (≲0.03/day); developing median < a day (≳0.4/day)",
	}
	rates := analysis.DowntimesPerDayByGroup(st, w.Availability)
	for _, g := range []analysis.Group{analysis.Developed, analysis.Developing} {
		xs := rates[g]
		r.add("%-10s n=%-3d CDF: %s", g, len(xs), cdfLine(xs, "/day"))
	}
	gaps := analysis.MedianTimeBetweenDowntimes(st, w.Availability)
	r.add("median time between downtimes: developed=%s developing=%s",
		fmtDur(gaps[analysis.Developed]), fmtDur(gaps[analysis.Developing]))
	r.add("frequent-downtime share: developed >1/10days = %.0f%%, developing >1/3days = %.0f%%",
		100*analysis.FractionWithFrequentDowntime(st, analysis.Developed, w.Availability, 10),
		100*analysis.FractionWithFrequentDowntime(st, analysis.Developing, w.Availability, 3))
	return r
}

// Fig4 reproduces the downtime-duration CDF.
func Fig4(st *dataset.Store, w Windows) *Report {
	r := &Report{
		ID:         "Figure 4",
		Title:      "Downtime duration, by group",
		PaperClaim: "median ≈30 min for both; developing has the longer tail (up to days)",
	}
	durs := analysis.DowntimeDurationsByGroup(st, w.Availability)
	for _, g := range []analysis.Group{analysis.Developed, analysis.Developing} {
		xs := durs[g]
		if len(xs) == 0 {
			r.add("%-10s (no downtimes)", g)
			continue
		}
		r.add("%-10s n=%-5d CDF(min): %s  max=%.1fh",
			g, len(xs), cdfLine(scale(xs, 1.0/60), "m"), stats.Quantile(xs, 1)/3600)
	}
	// Cause inference is only possible where the Uptime data set overlaps
	// (§3.3: the 12-hour uptime reports started in March).
	causeWin := w.Availability
	if causeWin.From.Before(dataset.UptimeFrom) {
		causeWin.From = dataset.UptimeFrom
	}
	if causeWin.To.After(dataset.UptimeTo) {
		causeWin.To = dataset.UptimeTo
	}
	if causeWin.To.After(causeWin.From) {
		for _, g := range []analysis.Group{analysis.Developed, analysis.Developing} {
			t := analysis.DowntimeCauses(st, g, causeWin)
			r.add("%-10s causes (Uptime-overlap window): power-off=%d network=%d unknown=%d",
				g, t[analysis.CausePowerOff], t[analysis.CauseNetwork], t[analysis.CauseUnknown])
		}
	}
	return r
}

// Fig5 reproduces the GDP scatter.
func Fig5(st *dataset.Store, w Windows) *Report {
	r := &Report{
		ID:         "Figure 5",
		Title:      "Median number of downtimes vs per-capita GDP (≥3 routers)",
		PaperClaim: "IN and PK (lowest GDP) have by far the most downtimes; PK ≈2/day",
	}
	days := w.Availability.To.Sub(w.Availability.From).Hours() / 24
	for _, pt := range analysis.DowntimesByCountry(st, w.Availability, 3) {
		r.add("%-3s gdp=$%-6.0f routers=%-3d medianDowntimes=%-6.0f (%.2f/day) medianDur=%s",
			pt.Code, pt.GDPPPP, pt.Routers, pt.MedianDowntimes,
			pt.MedianDowntimes/days, fmtDur(pt.MedianDuration))
	}
	return r
}

// Fig6 reproduces the availability-mode case studies as day-strips.
func Fig6(st *dataset.Store, w Windows) *Report {
	r := &Report{
		ID:         "Figure 6",
		Title:      "Availability archetypes (10-day strips; '#'=online per hour, '.'=down)",
		PaperClaim: "(a) always-on; (b) appliance-mode evenings/weekends; (c) powered-on but flaky ISP",
	}
	// Pick one example per mode.
	found := map[analysis.AvailabilityMode]string{}
	for _, id := range st.Heartbeats.Routers() {
		m := analysis.ClassifyAvailability(st, id, w.Availability)
		if _, ok := found[m]; !ok {
			found[m] = id
		}
		if len(found) == 3 {
			break
		}
	}
	order := []analysis.AvailabilityMode{analysis.ModeAlwaysOn, analysis.ModeAppliance, analysis.ModeFlakyISP}
	for _, m := range order {
		id, ok := found[m]
		if !ok {
			r.add("(%s: no example in data)", m)
			continue
		}
		frac := st.Heartbeats.UptimeFraction(id, w.Availability.From, w.Availability.To, 0)
		r.add("%-10s %s  uptime=%.2f%%", m, id, frac*100)
		for _, line := range dayStrips(st, id, w.Availability.From, 10) {
			r.add("  %s", line)
		}
	}
	// §4.2 medians.
	for _, code := range []string{"US", "IN", "ZA"} {
		r.add("median uptime %s = %.2f%% (paper: US 98.25, IN 76.01, ZA 85.57)",
			code, 100*analysis.MedianUptimeFraction(st, code, w.Availability))
	}
	return r
}

// dayStrips renders per-hour availability for n days from start.
func dayStrips(st *dataset.Store, id string, start time.Time, n int) []string {
	var out []string
	for d := 0; d < n; d++ {
		day := start.Add(time.Duration(d) * 24 * time.Hour)
		downs := st.Heartbeats.Downtimes(id, day, day.Add(24*time.Hour), 0)
		var b strings.Builder
		fmt.Fprintf(&b, "%s ", day.Format("01-02"))
		for h := 0; h < 24; h++ {
			at := day.Add(time.Duration(h)*time.Hour + 30*time.Minute)
			covered := true
			for _, dn := range downs {
				if !at.Before(dn.Start) && at.Before(dn.End) {
					covered = false
					break
				}
			}
			if covered {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		out = append(out, b.String())
	}
	return out
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= 48*time.Hour:
		return fmt.Sprintf("%.1fd", d.Hours()/24)
	case d >= 2*time.Hour:
		return fmt.Sprintf("%.1fh", d.Hours())
	default:
		return fmt.Sprintf("%.0fm", d.Minutes())
	}
}

// sortedKeys returns map keys sorted (shared helper).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
