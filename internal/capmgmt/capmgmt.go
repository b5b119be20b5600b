// Package capmgmt implements the usage-cap management tool the paper's
// deployment carried (§3.1: "smaller recruitment efforts in various
// areas for a usage cap management tool that we built on top of the
// firmware [24]" — Kim et al., "Communicating with caps", SIGCOMM CCR
// 2011). Households on capped Internet plans see their monthly budget,
// how each device spends it, and projections of when the cap will be
// hit; the gateway can throttle or alert as thresholds pass.
//
// The manager consumes the same per-device accounting the passive
// monitor produces, so it runs on anonymized identifiers and needs no
// extra collection.
package capmgmt

import (
	"fmt"
	"sort"
	"time"

	"natpeek/internal/mac"
)

// Plan is a household's ISP data plan.
type Plan struct {
	// MonthlyCapBytes is the plan's data cap (0 = uncapped).
	MonthlyCapBytes int64
	// BillingDay is the day of month the cap resets (1–28).
	BillingDay int
}

// alertThresholds are the fractions of the cap at which alerts fire,
// in ascending order.
var alertThresholds = [...]float64{0.5, 0.8, 0.95, 1.0}

func (p *Plan) fill() {
	if p.BillingDay < 1 || p.BillingDay > 28 {
		p.BillingDay = 1
	}
}

// Alert is one fired threshold crossing.
type Alert struct {
	At        time.Time
	Threshold float64 // fraction of cap
	Used      int64
	Cap       int64
}

func (a Alert) String() string {
	return fmt.Sprintf("%.0f%% of cap used (%d of %d bytes) at %s",
		a.Threshold*100, a.Used, a.Cap, a.At.Format("2006-01-02 15:04"))
}

// Manager tracks a household's usage against its plan.
type Manager struct {
	plan Plan

	periodStart time.Time
	used        int64
	perDevice   map[mac.Addr]int64
	fired       map[float64]bool
}

// New returns a manager for the plan, with the billing period containing
// now already open.
func New(plan Plan, now time.Time) *Manager {
	plan.fill()
	m := &Manager{
		plan:      plan,
		perDevice: make(map[mac.Addr]int64),
		fired:     make(map[float64]bool),
	}
	m.periodStart = periodStart(now, plan.BillingDay)
	return m
}

// periodStart returns the billing-period start containing now.
func periodStart(now time.Time, billingDay int) time.Time {
	y, mo, d := now.Date()
	start := time.Date(y, mo, billingDay, 0, 0, 0, 0, now.Location())
	if d < billingDay {
		start = start.AddDate(0, -1, 0)
	}
	return start
}

// Record adds bytes used by a device at time at, rolling the billing
// period if needed, and returns any alerts that fired.
func (m *Manager) Record(dev mac.Addr, bytes int64, at time.Time) []Alert {
	m.roll(at)
	if bytes <= 0 {
		return nil
	}
	m.used += bytes
	m.perDevice[dev] += bytes
	if m.plan.MonthlyCapBytes <= 0 {
		return nil
	}
	var fired []Alert
	frac := float64(m.used) / float64(m.plan.MonthlyCapBytes)
	for _, thr := range alertThresholds {
		if frac >= thr && !m.fired[thr] {
			m.fired[thr] = true
			fired = append(fired, Alert{At: at, Threshold: thr, Used: m.used, Cap: m.plan.MonthlyCapBytes})
		}
	}
	return fired
}

// roll closes finished billing periods up to at.
func (m *Manager) roll(at time.Time) {
	for {
		next := m.periodStart.AddDate(0, 1, 0)
		if at.Before(next) {
			return
		}
		m.periodStart = next
		m.used = 0
		m.perDevice = make(map[mac.Addr]int64)
		m.fired = make(map[float64]bool)
	}
}

// Used returns this period's consumption.
func (m *Manager) Used() int64 { return m.used }

// Cap returns the plan's monthly cap (0 = uncapped).
func (m *Manager) Cap() int64 { return m.plan.MonthlyCapBytes }

// Remaining returns bytes left under the cap (0 if over, cap if
// uncapped... an uncapped plan returns -1).
func (m *Manager) Remaining() int64 {
	if m.plan.MonthlyCapBytes <= 0 {
		return -1
	}
	r := m.plan.MonthlyCapBytes - m.used
	if r < 0 {
		return 0
	}
	return r
}

// DeviceUsage is one device's share of the period.
type DeviceUsage struct {
	Device mac.Addr
	Bytes  int64
	Share  float64
}

// ByDevice returns the period's usage per device, descending — the
// paper's web interface showed exactly this ("observe and manage their
// usage over time and across devices").
func (m *Manager) ByDevice() []DeviceUsage {
	out := make([]DeviceUsage, 0, len(m.perDevice))
	for d, b := range m.perDevice {
		du := DeviceUsage{Device: d, Bytes: b}
		if m.used > 0 {
			du.Share = float64(b) / float64(m.used)
		}
		out = append(out, du)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Device.String() < out[j].Device.String()
	})
	return out
}

// Projection estimates period-end usage from the rate so far.
func (m *Manager) Projection(now time.Time) int64 {
	m.roll(now)
	elapsed := now.Sub(m.periodStart)
	if elapsed <= 0 {
		return m.used
	}
	total := m.periodStart.AddDate(0, 1, 0).Sub(m.periodStart)
	return int64(float64(m.used) * float64(total) / float64(elapsed))
}

// WillExceed reports whether the projection crosses the cap.
func (m *Manager) WillExceed(now time.Time) bool {
	return m.plan.MonthlyCapBytes > 0 && m.Projection(now) > m.plan.MonthlyCapBytes
}

// ThrottlePolicy decides per-device throttling once usage nears the cap:
// the heaviest devices are slowed first, protecting light interactive
// use — the "communicating with caps" allocation idea.
type ThrottlePolicy struct {
	// StartAt is the cap fraction where throttling begins (default 0.9).
	StartAt float64
	// HeavyShare marks a device heavy if it used more than this share of
	// the period (default 0.3).
	HeavyShare float64
}

// ShouldThrottle reports whether dev should be rate-limited now.
func (tp ThrottlePolicy) ShouldThrottle(m *Manager, dev mac.Addr) bool {
	startAt := tp.StartAt
	if startAt <= 0 {
		startAt = 0.9
	}
	heavy := tp.HeavyShare
	if heavy <= 0 {
		heavy = 0.3
	}
	if m.plan.MonthlyCapBytes <= 0 {
		return false
	}
	frac := float64(m.used) / float64(m.plan.MonthlyCapBytes)
	if frac < startAt {
		return false
	}
	if frac >= 1 {
		return true // over cap: throttle everyone
	}
	for _, du := range m.ByDevice() {
		if du.Device == dev {
			return du.Share >= heavy
		}
	}
	return false
}
