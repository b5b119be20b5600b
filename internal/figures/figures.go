// Package figures regenerates every table and figure of the paper's
// evaluation from a dataset.Store. All returns one Report per exhibit
// whose lines are the same rows/series the paper plots, alongside the
// paper's own headline numbers so reproduction quality is visible at a
// glance.
//
// bismark-sim -report and bismark-analyze print them; EXPERIMENTS.md
// records paper-vs-measured for each, and the package's tests assert
// each exhibit's claim.
package figures

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/geo"
	"natpeek/internal/heartbeat"
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
	b.Grow(r.size())
	r.writeTo(&b)
	return b.String()
}

// writeTo writes the report as String renders it, size bytes.
func (r *Report) writeTo(b *strings.Builder) {
	for _, s := range [...]string{"== ", r.ID, ": ", r.Title, " ==\n"} {
		b.WriteString(s)
	}
	if r.PaperClaim != "" {
		b.WriteString("   paper: ")
		b.WriteString(r.PaperClaim)
		b.WriteByte('\n')
	}
	for _, l := range r.Lines {
		b.WriteString("   ")
		b.WriteString(l)
		b.WriteByte('\n')
	}
}

// size is the length of the report's rendering.
func (r *Report) size() int {
	n := len("== ") + len(r.ID) + len(": ") + len(r.Title) + len(" ==\n")
	if r.PaperClaim != "" {
		n += len("   paper: \n") + len(r.PaperClaim)
	}
	for _, l := range r.Lines {
		n += len("   \n") + len(l)
	}
	return n
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

// cdfPoints are the quantiles a CDF line shows, with their labels.
var cdfPoints = [...]struct {
	q     float64
	label string
}{{0.10, "p10="}, {0.25, "p25="}, {0.50, "p50="}, {0.75, "p75="}, {0.90, "p90="}}

// cdfSorted formats an empirical CDF as quantile points, each %.3g, of a
// sample in stats.SortFloats' order: each point is read off it
// (stats.QuantileRuns) — the values stats.Quantile selects, since a
// sample's order statistics are the same however they are found.
func cdfSorted(sorted []float64, unit string) string {
	if len(sorted) == 0 {
		return "(no samples)"
	}
	b := make([]byte, 0, len(cdfPoints)*(len("p10=1.23e+05  ")+len(unit)))
	for i, p := range cdfPoints {
		if i > 0 {
			b = append(b, "  "...)
		}
		b = append(b, p.label...)
		b = strconv.AppendFloat(b, stats.QuantileRuns(p.q, sorted), 'g', 3, 64)
		b = append(b, unit...)
	}
	return string(b)
}

// table1 reproduces the deployment roster from its index.
func table1(ro *analysis.Roster) *Report {
	r := &Report{
		ID:         "Table 1",
		Title:      "Classification of countries based on GDP per capita",
		PaperClaim: "90 developed routers across 10 countries; 36 developing across 9",
	}
	for _, grp := range []analysis.Group{analysis.Developed, analysis.Developing} {
		total := 0
		var parts []string
		for _, c := range geo.All() {
			if c.Developed != (grp == analysis.Developed) {
				continue
			}
			n := len(ro.InCountry(c.Code))
			total += n
			parts = append(parts, fmt.Sprintf("%s=%d", c.Code, n))
		}
		r.add("%-10s total=%d  (%s)", grp, total, strings.Join(parts, " "))
	}
	return r
}

// table2Rows are Table 2's rows, in the order
// analysis.Availability.KindCounts counts them, with their collection
// windows.
var table2Rows = [...]struct {
	name     string
	from, to time.Time
}{
	{"Heartbeats", dataset.HeartbeatsFrom, dataset.HeartbeatsTo},
	{"Capacity", dataset.CapacityFrom, dataset.CapacityTo},
	{"Uptime", dataset.UptimeFrom, dataset.UptimeTo},
	{"Devices", dataset.DevicesFrom, dataset.DevicesTo},
	{"WiFi", dataset.WiFiFrom, dataset.WiFiTo},
	{"Traffic", dataset.TrafficFrom, dataset.TrafficTo},
}

// table2 reproduces the data set inventory from the carried counts.
func table2(a *analysis.Availability) *Report {
	r := &Report{
		ID:         "Table 2",
		Title:      "Summary of data collected",
		PaperClaim: "Heartbeats 126 routers Oct'12–Apr'13; Uptime/Devices 113; WiFi 93; Traffic 25; Capacity 126",
	}
	row := func(name string, routers, countries int, from, to time.Time) {
		r.add("%-11s routers=%-4d countries=%-3d %s – %s",
			name, routers, countries, from.Format("2006-01-02"), to.Format("2006-01-02"))
	}
	for i, c := range a.KindCounts() {
		k := table2Rows[i]
		row(k.name, c.Routers, c.Countries, k.from, k.to)
	}
	return r
}

// fig3 reproduces the downtime-frequency CDF.
func fig3(a *analysis.Availability) *Report {
	r := &Report{
		ID:         "Figure 3",
		Title:      "Average number of downtimes per day (≥10 min), by group",
		PaperClaim: "developed median gap > a month (≲0.03/day); developing median < a day (≳0.4/day)",
	}
	for _, g := range []analysis.Group{analysis.Developed, analysis.Developing} {
		xs := a.DowntimesPerDay(g)
		r.add("%-10s n=%-3d CDF: %s", g, len(xs), cdfSorted(xs, "/day"))
	}
	r.add("median time between downtimes: developed=%s developing=%s",
		fmtDur(a.MedianTimeBetweenDowntimes(analysis.Developed)), fmtDur(a.MedianTimeBetweenDowntimes(analysis.Developing)))
	r.add("frequent-downtime share: developed >1/10days = %.0f%%, developing >1/3days = %.0f%%",
		100*a.FractionWithFrequentDowntime(analysis.Developed, 10),
		100*a.FractionWithFrequentDowntime(analysis.Developing, 3))
	return r
}

// fig4 reproduces the downtime-duration CDF.
func fig4(a *analysis.Availability) *Report {
	r := &Report{
		ID:         "Figure 4",
		Title:      "Downtime duration, by group",
		PaperClaim: "median ≈30 min for both; developing has the longer tail (up to days)",
	}
	for _, g := range []analysis.Group{analysis.Developed, analysis.Developing} {
		xs := a.DowntimeDurations(g)
		if len(xs) == 0 {
			r.add("%-10s (no downtimes)", g)
			continue
		}
		r.add("%-10s n=%-5d CDF(min): %s  max=%.1fh",
			g, len(xs), cdfSorted(xs, "m"), a.LongestDowntime(g)/3600)
	}
	if causeWin := analysis.CauseWindow(a.Window()); causeWin.To.After(causeWin.From) {
		for _, g := range []analysis.Group{analysis.Developed, analysis.Developing} {
			t := a.DowntimeCauses(g)
			r.add("%-10s causes (Uptime-overlap window): power-off=%d network=%d unknown=%d",
				g, t[analysis.CausePowerOff], t[analysis.CauseNetwork], t[analysis.CauseUnknown])
		}
	}
	return r
}

// fig5 reproduces the GDP scatter.
func fig5(a *analysis.Availability) *Report {
	r := &Report{
		ID:         "Figure 5",
		Title:      "Median number of downtimes vs per-capita GDP (≥3 routers)",
		PaperClaim: "IN and PK (lowest GDP) have by far the most downtimes; PK ≈2/day",
	}
	w := a.Window()
	days := w.To.Sub(w.From).Hours() / 24
	for _, pt := range a.DowntimesByCountry(3) {
		r.add("%-3s gdp=$%-6.0f routers=%-3d medianDowntimes=%-6.0f (%.2f/day) medianDur=%s",
			pt.Code, pt.GDPPPP, pt.Routers, pt.MedianDowntimes,
			pt.MedianDowntimes/days, fmtDur(pt.MedianDuration))
	}
	return r
}

// fig6 reproduces the availability-mode case studies as day-strips.
func fig6(hb *heartbeat.Log, a *analysis.Availability) *Report {
	r := &Report{
		ID:         "Figure 6",
		Title:      "Availability archetypes (10-day strips; '#'=online per hour, '.'=down)",
		PaperClaim: "(a) always-on; (b) appliance-mode evenings/weekends; (c) powered-on but flaky ISP",
	}
	order := []analysis.AvailabilityMode{analysis.ModeAlwaysOn, analysis.ModeAppliance, analysis.ModeFlakyISP}
	for _, m := range order {
		id := a.Example(m)
		if id == "" {
			r.add("(%s: no example in data)", m)
			continue
		}
		r.add("%-10s %s  uptime=%.2f%%", m, id, a.UptimeFraction(id)*100)
		for _, line := range dayStrips(hb, id, a.Window().From, 10) {
			r.add("  %s", line)
		}
	}
	// §4.2 medians.
	for _, code := range []string{"US", "IN", "ZA"} {
		r.add("median uptime %s = %.2f%% (paper: US 98.25, IN 76.01, ZA 85.57)",
			code, 100*a.MedianUptimeFraction(code))
	}
	return r
}

// dayStrips renders per-hour availability for n days from start.
func dayStrips(hb *heartbeat.Log, id string, start time.Time, n int) []string {
	var out []string
	for d := 0; d < n; d++ {
		day := start.Add(time.Duration(d) * 24 * time.Hour)
		downs := hb.Downtimes(id, day, day.Add(24*time.Hour), 0)
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
