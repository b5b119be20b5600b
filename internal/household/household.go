// Package household generates the synthetic homes that stand in for the
// paper's 126-home deployment. Every home is drawn from per-country
// behavioural models — router power habits, ISP reliability, device
// populations, wireless neighbourhoods, access-link tiers — calibrated to
// the population statistics the paper reports (§4–§6). The generation is
// deterministic per (seed, country, index): adding homes never perturbs
// existing ones, so experiments are reproducible and extensible.
package household

import (
	"fmt"
	"math"
	"time"

	"natpeek/internal/geo"
	"natpeek/internal/rng"
)

// Profile is one synthetic home.
type Profile struct {
	ID      string
	Country geo.Country

	// Appliance marks homes that power the router only while using it —
	// the §4.2 "router as home appliance" behaviour (Fig. 6b).
	Appliance bool

	// Availability model (for non-appliance downtime).
	outRatePerDay float64 // outage arrivals per day (ISP + power combined)
	durMedian     time.Duration
	durSigma      float64
	ispShare      float64 // fraction of outages where the router stays powered
	vacationRate  float64 // multi-day unplugs per day
	vacationMean  time.Duration

	// Access link.
	DownBps       float64
	UpBps         float64
	BurstBytes    int
	BufferUpBytes int
	PropDelay     time.Duration
	// UplinkSaturator marks the rare home that runs a continuous bulk
	// uploader (the §6.2 scientific-data user of Fig. 16a).
	UplinkSaturator bool

	// Wireless neighbourhood: APs visible on the default channels.
	NeighborAPs24 int
	NeighborAPs5  int

	// Devices in the home.
	Devices []*Device

	// DailyVolumeBytes is the home's mean daily traffic volume.
	DailyVolumeBytes float64

	rnd *rng.Stream
}

// Generate draws home number idx for a country. The stream must be the
// world's root stream; Generate derives its own children and never
// consumes from it.
func Generate(c geo.Country, idx int, root *rng.Stream) *Profile {
	rnd := root.Child("home-"+c.Code).ChildN("idx", idx)
	p := &Profile{
		ID:      fmt.Sprintf("bismark-%s-%03d", c.Code, idx),
		Country: c,
		rnd:     rnd,
	}
	p.drawAvailability(rnd.Child("avail"))
	p.drawLink(rnd.Child("link"))
	p.drawNeighborhood(rnd.Child("wifi"))
	p.drawDevices(rnd.Child("devices"))
	return p
}

// availTuning captures per-country availability behaviour. Values are
// calibrated so the §4 statistics come out near the paper's: US median
// uptime ≈98%, India ≈76%, South Africa ≈86%, Pakistan ≈2 downtimes/day,
// developed median time-between-downtimes over a month, developing under
// a day.
type availTuning struct {
	applianceProb float64
	outRate       float64 // median outages/day
	durMedian     time.Duration
	durSigma      float64
	vacationRate  float64
}

func tuningFor(c geo.Country) availTuning {
	switch c.Code {
	case "IN":
		return availTuning{0.30, 1.5, 60 * time.Minute, 1.4, 0.004}
	case "PK":
		return availTuning{0.25, 2.2, 60 * time.Minute, 1.35, 0.004}
	case "ZA":
		return availTuning{0.15, 1.5, 55 * time.Minute, 1.3, 0.003}
	case "CN":
		return availTuning{0.50, 0.6, 35 * time.Minute, 1.1, 0.003}
	}
	if c.Developed {
		// Rare outages; a small flaky tail (Fig. 6c's sporadic-ISP home).
		return availTuning{0.02, 0.03, 30 * time.Minute, 1.4, 0.0035}
	}
	// Generic developing-country home.
	return availTuning{0.25, 0.7, 35 * time.Minute, 1.25, 0.004}
}

func (p *Profile) drawAvailability(rnd *rng.Stream) {
	t := tuningFor(p.Country)
	p.Appliance = rnd.Bool(t.applianceProb)
	// Per-home heterogeneity: rates vary ×[0.4, 2.2) around the country
	// median; ~8% of developed homes are "flaky" with 10× the outage rate
	// (they populate the upper tail of Fig. 3).
	scale := rnd.Range(0.4, 2.2)
	if p.Country.Developed && rnd.Bool(0.08) {
		scale *= 10
	}
	// A slice of developing-country homes sit on solid urban
	// infrastructure — the paper found only ~50% of developing homes
	// with sub-3-day downtime intervals, not all of them. The poorest
	// countries (IN, PK — Fig. 5's outliers) don't get this mode.
	if !p.Country.Developed && p.Country.GDPPPP > 6000 && rnd.Bool(0.35) {
		scale *= 0.12
	}
	p.outRatePerDay = t.outRate * scale
	p.durMedian = t.durMedian
	p.durSigma = t.durSigma
	p.ispShare = rnd.Range(0.35, 0.75)
	p.vacationRate = t.vacationRate
	p.vacationMean = time.Duration(rnd.Range(36, 120)) * time.Hour
}

func (p *Profile) drawLink(rnd *rng.Stream) {
	if p.Country.Developed {
		p.DownBps = math.Min(105e6, rnd.LogNormal(math.Log(16e6), 0.8))
		p.UpBps = math.Min(20e6, rnd.LogNormal(math.Log(2e6), 0.8))
	} else {
		p.DownBps = math.Min(20e6, rnd.LogNormal(math.Log(2.5e6), 0.9))
		p.UpBps = math.Min(4e6, rnd.LogNormal(math.Log(0.5e6), 0.8))
	}
	if p.UpBps > p.DownBps {
		p.UpBps = p.DownBps / 2
	}
	if p.UpBps < 64e3 {
		p.UpBps = 64e3
	}
	// Cable tiers often burst ("PowerBoost"); DSL does not.
	if rnd.Bool(0.4) {
		p.BurstBytes = int(rnd.Range(2e6, 12e6))
	}
	// Consumer uplink buffers are bloated: hundreds of ms to seconds.
	p.BufferUpBytes = int(rnd.Range(0.5, 4) * p.UpBps / 8) // 0.5–4 s of buffering
	p.PropDelay = time.Duration(rnd.Range(5, 40)) * time.Millisecond
	p.UplinkSaturator = p.Country.Code == "US" && rnd.Bool(0.08)
	// Home daily volume: heavy-tailed, larger on faster links.
	base := 1.2e9
	if !p.Country.Developed {
		base = 0.35e9
	}
	p.DailyVolumeBytes = rnd.LogNormal(math.Log(base), 0.8)
}

func (p *Profile) drawNeighborhood(rnd *rng.Stream) {
	if p.Country.Developed {
		// Bimodal (Fig. 11): detached homes see a handful of APs, dense
		// housing sees dozens. Median lands near 20.
		if rnd.Bool(0.3) {
			p.NeighborAPs24 = rnd.Intn(4)
		} else {
			p.NeighborAPs24 = 8 + rnd.Intn(28)
		}
		p.NeighborAPs5 = rnd.Intn(4)
	} else {
		if rnd.Bool(0.55) {
			p.NeighborAPs24 = rnd.Intn(3)
		} else {
			p.NeighborAPs24 = 3 + rnd.Intn(6)
		}
		if rnd.Bool(0.8) {
			p.NeighborAPs5 = 0
		} else {
			p.NeighborAPs5 = 1 + rnd.Intn(2)
		}
	}
}

func (p *Profile) drawDevices(rnd *rng.Stream) {
	n := p.drawDeviceCount(rnd)
	kinds, weights := kindMix(p.Country.Developed)
	// Every home gets at least one personal device; the rest are drawn
	// from the kind mix.
	for i := 0; i < n; i++ {
		var kind DeviceKind
		if i == 0 {
			kind = KindLaptop
		} else {
			kind = kinds[rnd.WeightedChoice(weights)]
		}
		p.Devices = append(p.Devices, newDevice(kind, p.Country.Developed, rnd.ChildN("dev", i)))
	}
}

// drawDeviceCount targets Fig. 7: mean ≈7 devices, more than half of
// homes with ≥5, a ~20% tail of 1–2-device homes, developed homes about
// one device richer than developing ones (Fig. 8).
func (p *Profile) drawDeviceCount(rnd *rng.Stream) int {
	if rnd.Bool(0.15) {
		return 1 + rnd.Intn(2)
	}
	median := 7.0
	if !p.Country.Developed {
		median = 5.4
	}
	n := int(rnd.LogNormal(math.Log(median), 0.45) + 0.5)
	if n < 3 {
		n = 3
	}
	if n > 22 {
		n = 22
	}
	return n
}

// --- Availability interval generation -----------------------------------

// PowerOnIntervals returns when the router is powered, within [from, to).
// The draw is deterministic: calling it twice yields identical intervals.
func (p *Profile) PowerOnIntervals(from, to time.Time) []Interval {
	rnd := p.rnd.Child("power-draw")
	if p.Appliance {
		return p.applianceWindows(rnd, from, to)
	}
	on := []Interval{{from, to}}
	var off []Interval
	// Vacations / long unplugs.
	off = append(off, drawOutages(rnd.Child("vacation"), from, to, p.vacationRate,
		float64(p.vacationMean), 0.5)...)
	// Power-outage share of the outage process (the rest are ISP-side and
	// leave the router powered).
	powerRate := p.outRatePerDay * (1 - p.ispShare)
	off = append(off, drawLogNormalOutages(rnd.Child("power-out"), from, to, powerRate,
		p.durMedian, p.durSigma)...)
	// Reboots: short self-inflicted blips, a few per month.
	off = append(off, drawOutages(rnd.Child("reboot"), from, to, 0.08,
		float64(3*time.Minute), 0.4)...)
	return Subtract(on, Merge(off))
}

// ISPOutageIntervals returns when the access link is dead while the
// router may well be powered (Fig. 6c's mode). Deterministic.
func (p *Profile) ISPOutageIntervals(from, to time.Time) []Interval {
	rnd := p.rnd.Child("isp-draw")
	ispRate := p.outRatePerDay * p.ispShare
	return Merge(drawLogNormalOutages(rnd, from, to, ispRate, p.durMedian, p.durSigma))
}

// OnlineIntervals returns when heartbeats can reach the collection
// server: router powered AND link up.
func (p *Profile) OnlineIntervals(from, to time.Time) []Interval {
	return Subtract(p.PowerOnIntervals(from, to), p.ISPOutageIntervals(from, to))
}

// applianceWindows builds the Fig. 6b pattern: the router comes up in the
// evening on weekdays, for longer spans on weekends, and is otherwise
// off. Times follow the home country's local clock.
func (p *Profile) applianceWindows(rnd *rng.Stream, from, to time.Time) []Interval {
	var out []Interval
	loc := p.Country.UTCOffset
	day := from.Add(loc).Truncate(24 * time.Hour).Add(-loc) // local midnight
	for ; day.Before(to); day = day.Add(24 * time.Hour) {
		dow := day.Add(loc).Weekday()
		weekend := dow == time.Saturday || dow == time.Sunday
		r := rnd.ChildN("day", int(day.Unix()/86400))
		if !weekend && r.Bool(0.15) {
			continue // didn't use the Internet today
		}
		var start, end float64 // local hours
		if weekend {
			start = r.Range(9.5, 12)
			end = r.Range(21.5, 23.9)
		} else {
			start = r.Range(17.5, 19.5)
			end = r.Range(21.5, 23.5)
		}
		s := day.Add(loc).Add(time.Duration(start * float64(time.Hour))).Add(-loc)
		e := day.Add(loc).Add(time.Duration(end * float64(time.Hour))).Add(-loc)
		out = append(out, Interval{s, e})
		// Weekends sometimes get a separate morning session.
		if weekend && r.Bool(0.3) {
			s2 := day.Add(loc).Add(time.Duration(r.Range(7, 8.5) * float64(time.Hour))).Add(-loc)
			e2 := day.Add(loc).Add(time.Duration(r.Range(8.5, 9.4) * float64(time.Hour))).Add(-loc)
			out = append(out, Interval{s2, e2})
		}
	}
	return Clip(Merge(out), from, to)
}

// drawOutages draws a Poisson process of outages with exponentially
// distributed durations (mean given in nanoseconds, jittered by sigma as
// a multiplicative factor range).
func drawOutages(rnd *rng.Stream, from, to time.Time, ratePerDay float64, meanDurNs, jitter float64) []Interval {
	if ratePerDay <= 0 {
		return nil
	}
	var out []Interval
	t := from
	meanGap := 24 * float64(time.Hour) / ratePerDay
	for {
		gap := time.Duration(rnd.Exp(meanGap))
		t = t.Add(gap)
		if !t.Before(to) {
			return out
		}
		dur := time.Duration(rnd.Exp(meanDurNs) * rnd.Range(1-jitter, 1+jitter))
		if dur < time.Minute {
			dur = time.Minute
		}
		end := t.Add(dur)
		if end.After(to) {
			end = to
		}
		out = append(out, Interval{t, end})
		t = end
	}
}

// drawLogNormalOutages draws a Poisson process of outages with log-normal
// durations (median, sigma) — matching Fig. 4's heavy-tailed downtime
// durations.
func drawLogNormalOutages(rnd *rng.Stream, from, to time.Time, ratePerDay float64, median time.Duration, sigma float64) []Interval {
	if ratePerDay <= 0 {
		return nil
	}
	var out []Interval
	t := from
	meanGap := 24 * float64(time.Hour) / ratePerDay
	for {
		gap := time.Duration(rnd.Exp(meanGap))
		t = t.Add(gap)
		if !t.Before(to) {
			return out
		}
		dur := time.Duration(rnd.LogNormal(math.Log(float64(median)), sigma))
		if dur < time.Minute {
			dur = time.Minute
		}
		end := t.Add(dur)
		if end.After(to) {
			end = to
		}
		out = append(out, Interval{t, end})
		t = end
	}
}

// --- Device presence -----------------------------------------------------

// DeviceOnline reports whether device d is connected to the router at
// instant at, assuming the router itself is up. The draw is stable within
// an hour and deterministic across calls.
func (p *Profile) DeviceOnline(d *Device, at time.Time) bool {
	if d.AlwaysOn {
		return true
	}
	local := at.Add(p.Country.UTCOffset)
	hour := local.Hour()
	dow := local.Weekday()
	weekend := 0
	if dow == time.Saturday || dow == time.Sunday {
		weekend = 1
	}
	prob := d.Presence[weekend][hour]
	hourIdx := int(at.Unix() / 3600)
	draw := p.rnd.Child("presence-"+d.HW.String()).ChildN("h", hourIdx).Float64()
	return draw < prob
}

// LocalHour returns the hour of day in the home's local time.
func (p *Profile) LocalHour(at time.Time) int {
	return at.Add(p.Country.UTCOffset).Hour()
}

// Rand exposes the profile's deterministic stream for downstream
// generators (traffic); children drawn from it never disturb the
// profile's own draws.
func (p *Profile) Rand() *rng.Stream { return p.rnd }
