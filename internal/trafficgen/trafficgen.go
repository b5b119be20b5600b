// Package trafficgen synthesizes the Traffic data set: per-device flows
// to domains and per-minute throughput, shaped to reproduce the paper's
// §6 usage structure —
//
//   - one dominant device per home (≈60–65% of volume, Fig. 17);
//   - one dominant domain (≈38% of volume but <14% of connections,
//     Fig. 19) because streaming runs few, long, heavy flows;
//   - whitelisted domains ≈65% of volume (§6.4), the rest to unlisted
//     names the anonymizer will obfuscate;
//   - diurnal minute-level load with rare uplink saturators whose
//     *measured* throughput exceeds shaped capacity (Figs. 14–16).
//
// The generator has two faithfulness levels: record mode (flows +
// minute loads, used by the fleet simulator) and frame mode (real
// Ethernet frames for the capture pipeline, used by examples and
// integration tests).
package trafficgen

import (
	"fmt"
	"math"
	"time"

	"natpeek/internal/domains"
	"natpeek/internal/household"
	"natpeek/internal/rng"
)

// FlowSpec is one generated connection bundle: several connections to the
// same domain by the same device within a day, with aggregate volume.
type FlowSpec struct {
	Device    *household.Device
	Domain    string // real name; unlisted names end in ".unlisted.example"
	Category  domains.Category
	Start     time.Time
	End       time.Time
	UpBytes   int64
	DownBytes int64
	Conns     int
}

// MinuteLoad is one minute of home-level offered load.
type MinuteLoad struct {
	Minute      time.Time
	UpBytes     int64
	DownBytes   int64
	UpPeakBps   float64
	DownPeakBps float64
}

// DayTraffic is one generated home-day.
type DayTraffic struct {
	Flows   []FlowSpec
	Minutes []MinuteLoad
}

// flowShape gives per-category connection characteristics.
type flowShape struct {
	meanBytes float64 // mean connection size
	sigma     float64
	downFrac  float64 // fraction of bytes downstream
}

var shapes = map[domains.Category]flowShape{
	domains.Streaming: {60e6, 1.0, 0.97},
	domains.CDN:       {3e6, 1.2, 0.95},
	domains.Cloud:     {8e6, 1.5, 0.55}, // sync traffic is up-heavy (Fig. 20a)
	domains.Gaming:    {5e6, 1.2, 0.85},
	domains.Ads:       {150e3, 1.0, 0.9},
	domains.Search:    {350e3, 1.2, 0.9},
	domains.Social:    {700e3, 1.3, 0.88},
	domains.News:      {700e3, 1.2, 0.95},
	domains.Shopping:  {600e3, 1.2, 0.93},
	domains.Portal:    {600e3, 1.2, 0.9},
	domains.Reference: {500e3, 1.2, 0.95},
	domains.Travel:    {500e3, 1.2, 0.93},
	domains.Finance:   {400e3, 1.1, 0.9},
	domains.Tech:      {800e3, 1.4, 0.9},
	domains.Other:     {600e3, 1.3, 0.9},
}

// dailyCapBytes bounds per-device daily volume for browsing categories:
// nobody reads 40 MB of news a day, but streaming scales without bound.
// Volume clipped here reallocates to streaming/CDN — the marginal byte in
// a 2013 home is video, which is exactly what concentrates volume on one
// domain while connections stay spread out (Fig. 19's disproportion).
var dailyCapBytes = map[domains.Category]float64{
	domains.Ads:       4e6,
	domains.Search:    6e6,
	domains.Social:    30e6,
	domains.News:      25e6,
	domains.Shopping:  20e6,
	domains.Portal:    15e6,
	domains.Reference: 15e6,
	domains.Travel:    10e6,
	domains.Finance:   5e6,
	domains.Tech:      25e6,
	domains.Other:     20e6,
}

// UnlistedVolumeFrac is the share of home volume sent to domains outside
// the whitelist; the paper measures whitelisted traffic at ≈65% of
// volume, so the unlisted share is ≈35%.
const UnlistedVolumeFrac = 0.35

// Generator produces traffic for one home.
type Generator struct {
	home *household.Profile
	rnd  *rng.Stream

	// primaryStream is the home's dominant streaming service — the
	// single-subscription effect that concentrates volume on one domain.
	primaryStream   string
	secondaryStream string

	catSamplers map[domains.Category]*rng.Zipf
	catDomains  map[domains.Category][]domains.Domain
	unlisted    *rng.Zipf
	homeTag     string
}

// New returns a generator for the home. Derivation is deterministic from
// the home's stream.
func New(home *household.Profile) *Generator {
	rnd := home.Rand().Child("traffic")
	g := &Generator{
		home:        home,
		rnd:         rnd,
		catSamplers: make(map[domains.Category]*rng.Zipf),
		catDomains:  make(map[domains.Category][]domains.Domain),
		unlisted:    rng.NewZipf(120, 1.4),
	}
	for _, c := range []domains.Category{
		domains.Streaming, domains.CDN, domains.Cloud, domains.Gaming,
		domains.Ads, domains.Search, domains.Social, domains.News,
		domains.Shopping, domains.Portal, domains.Reference, domains.Travel,
		domains.Finance, domains.Tech, domains.Other,
	} {
		ds := domains.ByCategory(c)
		if len(ds) == 0 {
			continue
		}
		g.catDomains[c] = ds
		g.catSamplers[c] = rng.NewZipf(len(ds), 1.6)
	}
	// Per-home tag for unlisted domains: the paper's obfuscated tail is
	// mostly home-specific sites, not a shared universe.
	g.homeTag = fmt.Sprintf("%08x", rnd.Child("unlisted-tag").Uint64()&0xffffffff)
	// Pick the home's streaming services, biased to the big ones.
	pick := rnd.Child("stream-pick")
	streams := g.catDomains[domains.Streaming]
	g.primaryStream = streams[g.catSamplers[domains.Streaming].Sample(pick)].Name
	g.secondaryStream = streams[g.catSamplers[domains.Streaming].Sample(pick)].Name
	return g
}

// GenerateDay produces the home's flows and minute loads for the day
// starting at dayStart (UTC), constrained to the online intervals.
func (g *Generator) GenerateDay(dayStart time.Time, online []household.Interval) DayTraffic {
	var out DayTraffic
	dayEnd := dayStart.Add(24 * time.Hour)
	online = household.Clip(online, dayStart, dayEnd)
	if household.TotalDuration(online) == 0 {
		return out
	}
	dayIdx := int(dayStart.Unix() / 86400)
	rnd := g.rnd.ChildN("day", dayIdx)

	// Home volume for the day.
	volume := g.home.DailyVolumeBytes * rnd.LogNormal(0, 0.5)

	// Split volume across devices by their heavy-tailed weights, counting
	// only devices online at some point today.
	active, weights := g.activeDevices(dayStart, online)
	if len(active) == 0 {
		return out
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for i, d := range active {
		devVol := volume * weights[i] / total
		flows := g.deviceFlows(rnd.ChildN("dev", i), d, devVol, dayStart, online)
		out.Flows = append(out.Flows, flows...)
	}
	out.Minutes = g.minuteLoads(rnd.Child("minutes"), out.Flows, dayStart, online)
	return out
}

func (g *Generator) activeDevices(dayStart time.Time, online []household.Interval) ([]*household.Device, []float64) {
	var devs []*household.Device
	var ws []float64
	for _, d := range g.home.Devices {
		on := false
		for h := 0; h < 24 && !on; h += 2 {
			at := dayStart.Add(time.Duration(h) * time.Hour)
			if household.CoveredAt(online, at) && g.home.DeviceOnline(d, at) {
				on = true
			}
		}
		if on {
			devs = append(devs, d)
			ws = append(ws, d.VolumeWeight)
		}
	}
	return devs, ws
}

// deviceFlows splits a device's daily volume into per-domain flow specs.
func (g *Generator) deviceFlows(rnd *rng.Stream, d *household.Device, vol float64, dayStart time.Time, online []household.Interval) []FlowSpec {
	var out []FlowSpec
	if vol < 1e4 {
		return nil
	}
	// Category split by device preference.
	cats := make([]domains.Category, 0, len(d.CategoryPrefs))
	ws := make([]float64, 0, len(d.CategoryPrefs))
	for c, w := range d.CategoryPrefs {
		cats = append(cats, c)
		ws = append(ws, w)
	}
	// Deterministic ordering of the map iteration.
	sortCatsByName(cats, ws)

	wlVol := vol * (1 - UnlistedVolumeFrac)
	totalW := 0.0
	for _, w := range ws {
		totalW += w
	}
	// First pass: clamp browsing categories to their daily caps and pool
	// the excess.
	catVols := make([]float64, len(cats))
	excess := 0.0
	streamIdx := -1
	for i, c := range cats {
		catVols[i] = wlVol * ws[i] / totalW
		if c == domains.Streaming {
			streamIdx = i
		}
		if cap, ok := dailyCapBytes[c]; ok && catVols[i] > cap {
			excess += catVols[i] - cap
			catVols[i] = cap
		}
	}
	if excess > 0 {
		if streamIdx >= 0 {
			catVols[streamIdx] += excess
		} else {
			// Devices with no streaming habit push their excess to CDN.
			out = append(out, g.categoryFlows(rnd.Child("cdn-excess"), d, domains.CDN, excess, dayStart, online)...)
		}
	}
	for i, c := range cats {
		out = append(out, g.categoryFlows(rnd.ChildN("cat", i), d, c, catVols[i], dayStart, online)...)
	}
	// Unlisted tail.
	out = append(out, g.unlistedFlows(rnd.Child("unlisted"), d, vol*UnlistedVolumeFrac, dayStart, online)...)
	return out
}

func (g *Generator) categoryFlows(rnd *rng.Stream, d *household.Device, c domains.Category, vol float64, dayStart time.Time, online []household.Interval) []FlowSpec {
	shape := shapes[c]
	var out []FlowSpec
	for vol > shape.meanBytes/20 && len(out) < 200 {
		name := g.pickDomain(rnd, c)
		// Aggregate several connections to the domain into one spec.
		connBytes := rnd.LogNormal(math.Log(shape.meanBytes), shape.sigma)
		if connBytes > vol {
			connBytes = vol
		}
		conns := 1 + rnd.Poisson(connBytesToConnCount(c))
		start, end := g.placeFlow(rnd, dayStart, online, c)
		down := int64(connBytes * shape.downFrac)
		up := int64(connBytes) - down
		out = append(out, FlowSpec{
			Device: d, Domain: name, Category: c,
			Start: start, End: end,
			UpBytes: up, DownBytes: down, Conns: conns,
		})
		vol -= connBytes
	}
	return out
}

// connBytesToConnCount gives the extra-connection intensity per spec:
// browsing categories open many short connections, streaming very few.
func connBytesToConnCount(c domains.Category) float64 {
	switch c {
	case domains.Streaming:
		return 6
	case domains.Ads:
		return 2
	case domains.Social, domains.Search, domains.Portal:
		return 2
	case domains.News, domains.Shopping, domains.Reference, domains.Travel:
		return 1.5
	default:
		return 1
	}
}

func (g *Generator) pickDomain(rnd *rng.Stream, c domains.Category) string {
	ds := g.catDomains[c]
	if len(ds) == 0 {
		return "misc.unlisted.example"
	}
	if c == domains.Streaming {
		// Single-subscription concentration: most streaming volume goes
		// to the home's primary service.
		r := rnd.Float64()
		switch {
		case r < 0.82:
			return g.primaryStream
		case r < 0.93:
			return g.secondaryStream
		}
	}
	return ds[g.catSamplers[c].Sample(rnd)].Name
}

func (g *Generator) unlistedFlows(rnd *rng.Stream, d *household.Device, vol float64, dayStart time.Time, online []household.Interval) []FlowSpec {
	var out []FlowSpec
	shape := flowShape{1.2e6, 1.5, 0.9}
	for vol > 20e3 && len(out) < 300 {
		name := fmt.Sprintf("site-%03d-%s.unlisted.example", g.unlisted.Sample(rnd), g.homeTag)
		connBytes := rnd.LogNormal(math.Log(shape.meanBytes), shape.sigma)
		if connBytes > vol {
			connBytes = vol
		}
		start, end := g.placeFlow(rnd, dayStart, online, domains.Other)
		down := int64(connBytes * shape.downFrac)
		out = append(out, FlowSpec{
			Device: d, Domain: name, Category: domains.Other,
			Start: start, End: end,
			UpBytes: int64(connBytes) - down, DownBytes: down,
			Conns: 1 + rnd.Poisson(1),
		})
		vol -= connBytes
	}
	return out
}

// placeFlow picks a start within the online intervals, weighted to local
// evening hours, and a duration by category.
func (g *Generator) placeFlow(rnd *rng.Stream, dayStart time.Time, online []household.Interval, c domains.Category) (time.Time, time.Time) {
	// Rejection-sample an online minute with evening bias.
	var start time.Time
	for tries := 0; tries < 24; tries++ {
		iv := online[rnd.Intn(len(online))]
		span := iv.Duration()
		at := iv.Start.Add(time.Duration(rnd.Float64() * float64(span)))
		h := g.home.LocalHour(at)
		w := hourWeight(h)
		if rnd.Float64() < w {
			start = at
			break
		}
		start = at
	}
	var dur time.Duration
	minutes := func(lo, hi float64) time.Duration {
		return time.Duration(rnd.Range(lo, hi) * float64(time.Minute))
	}
	switch c {
	case domains.Streaming:
		dur = minutes(20, 150)
	case domains.Cloud:
		dur = minutes(5, 120)
	case domains.Gaming:
		dur = minutes(15, 90)
	default:
		dur = minutes(0.2, 15)
	}
	return start, start.Add(dur)
}

// hourWeight is the diurnal acceptance probability (peaks in the
// evening, trough mid-afternoon and small hours — Figs. 13–14).
func hourWeight(h int) float64 {
	switch {
	case h >= 19 && h <= 22:
		return 1.0
	case h >= 17 && h <= 18:
		return 0.8
	case h >= 23 || h <= 0:
		return 0.5
	case h >= 7 && h <= 9:
		return 0.45
	case h >= 10 && h <= 16:
		return 0.3
	default:
		return 0.15
	}
}

// minuteLoads spreads flow volume over minutes and derives peak-1s
// throughput, clamping honest flows near capacity but letting the
// bufferbloat saturator exceed it (§6.2).
func (g *Generator) minuteLoads(rnd *rng.Stream, flows []FlowSpec, dayStart time.Time, online []household.Interval) []MinuteLoad {
	type acc struct{ up, down float64 }
	minutes := make(map[int]*acc)
	addVol := func(start, end time.Time, up, down float64) {
		s := int(start.Sub(dayStart) / time.Minute)
		e := int(end.Sub(dayStart)/time.Minute) + 1
		if s < 0 {
			s = 0
		}
		if e > 24*60 {
			e = 24 * 60
		}
		if e <= s {
			e = s + 1
		}
		n := float64(e - s)
		for m := s; m < e && m < 24*60; m++ {
			a := minutes[m]
			if a == nil {
				a = &acc{}
				minutes[m] = a
			}
			a.up += up / n
			a.down += down / n
		}
	}
	for _, f := range flows {
		addVol(f.Start, f.End, float64(f.UpBytes), float64(f.DownBytes))
	}
	// The saturator home uploads continuously while online.
	if g.home.UplinkSaturator {
		upRate := g.home.UpBps / 8 * rnd.Range(1.0, 1.25) // offered ≥ capacity
		for _, iv := range online {
			for t := iv.Start; t.Before(iv.End); t = t.Add(time.Minute) {
				if t.Before(dayStart) || !t.Before(dayStart.Add(24*time.Hour)) {
					continue
				}
				addVol(t, t.Add(time.Minute), upRate*60, 0)
			}
		}
	}
	var out []MinuteLoad
	for m := 0; m < 24*60; m++ {
		a := minutes[m]
		if a == nil || (a.up < 1 && a.down < 1) {
			continue
		}
		burst := rnd.Pareto(1.4, 1.7)
		downPeak := a.down * 8 / 60 * burst
		if downPeak > g.home.DownBps {
			downPeak = g.home.DownBps
		}
		upPeak := a.up * 8 / 60 * rnd.Pareto(1.2, 2.0)
		// Honest uplink peaks clamp at capacity; the saturator's
		// gateway-side measurement rides above it (bufferbloat).
		if g.home.UplinkSaturator {
			if lim := g.home.UpBps * 1.35; upPeak > lim {
				upPeak = lim
			}
		} else if upPeak > g.home.UpBps {
			upPeak = g.home.UpBps
		}
		out = append(out, MinuteLoad{
			Minute:      dayStart.Add(time.Duration(m) * time.Minute),
			UpBytes:     int64(a.up),
			DownBytes:   int64(a.down),
			UpPeakBps:   upPeak,
			DownPeakBps: downPeak,
		})
	}
	return out
}

func sortCatsByName(cats []domains.Category, ws []float64) {
	for i := 1; i < len(cats); i++ {
		for j := i; j > 0 && cats[j] < cats[j-1]; j-- {
			cats[j], cats[j-1] = cats[j-1], cats[j]
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}
