package capmgmt

import (
	"testing"
	"time"

	"natpeek/internal/mac"
)

var (
	t0   = time.Date(2013, 4, 5, 12, 0, 0, 0, time.UTC)
	devA = mac.MustParse("a4:b1:97:00:00:01")
	devB = mac.MustParse("00:24:54:00:00:02")
)

func newMgr(capBytes int64) *Manager {
	return New(Plan{MonthlyCapBytes: capBytes, BillingDay: 1}, t0)
}

func TestPeriodStartBeforeBillingDay(t *testing.T) {
	// Opened on Apr 5 with billing day 10: the period began Mar 10, so
	// Apr 9 is inside it and Apr 10 opens the next one.
	m := New(Plan{BillingDay: 10}, time.Date(2013, 4, 5, 0, 0, 0, 0, time.UTC))
	m.Record(devA, 100, time.Date(2013, 4, 9, 23, 0, 0, 0, time.UTC))
	if m.Used() != 100 {
		t.Fatalf("used %d before the billing day, want 100", m.Used())
	}
	m.Record(devA, 10, time.Date(2013, 4, 10, 0, 0, 0, 0, time.UTC))
	if m.Used() != 10 {
		t.Fatalf("used %d on the billing day, want 10 (period rolled)", m.Used())
	}
	// Opened on Apr 15: the period began Apr 10 and runs to May 10.
	m2 := New(Plan{BillingDay: 10}, time.Date(2013, 4, 15, 0, 0, 0, 0, time.UTC))
	m2.Record(devA, 100, time.Date(2013, 5, 9, 0, 0, 0, 0, time.UTC))
	m2.Record(devA, 100, time.Date(2013, 5, 9, 23, 0, 0, 0, time.UTC))
	if m2.Used() != 200 {
		t.Fatalf("used %d before May 10, want 200", m2.Used())
	}
}

func TestRecordAccumulates(t *testing.T) {
	m := newMgr(1000)
	m.Record(devA, 300, t0)
	m.Record(devB, 200, t0.Add(time.Hour))
	if m.Used() != 500 || m.Remaining() != 500 {
		t.Fatalf("used=%d remaining=%d", m.Used(), m.Remaining())
	}
	by := m.ByDevice()
	if len(by) != 2 || by[0].Device != devA || by[0].Share != 0.6 {
		t.Fatalf("by device %+v", by)
	}
}

func TestAlertsFireOnceInOrder(t *testing.T) {
	m := newMgr(1000)
	if a := m.Record(devA, 400, t0); len(a) != 0 {
		t.Fatalf("early alert %v", a)
	}
	a := m.Record(devA, 200, t0.Add(time.Hour)) // 60% → crosses 0.5
	if len(a) != 1 || a[0].Threshold != 0.5 {
		t.Fatalf("alerts %v", a)
	}
	a = m.Record(devA, 500, t0.Add(2*time.Hour)) // 110% → crosses 0.8, 0.95, 1.0
	if len(a) != 3 || a[2].Threshold != 1.0 {
		t.Fatalf("alerts %v", a)
	}
	// Nothing re-fires.
	if a := m.Record(devA, 100, t0.Add(3*time.Hour)); len(a) != 0 {
		t.Fatalf("re-fired %v", a)
	}
}

func TestOverCap(t *testing.T) {
	m := newMgr(100)
	m.Record(devA, 100, t0)
	if m.Remaining() != 0 || !(ThrottlePolicy{}).ShouldThrottle(m, devB) {
		t.Fatal("cap not detected")
	}
}

func TestUncappedPlan(t *testing.T) {
	m := newMgr(0)
	if a := m.Record(devA, 1e9, t0); len(a) != 0 {
		t.Fatal("uncapped plan alerted")
	}
	if m.Remaining() != -1 || (ThrottlePolicy{}).ShouldThrottle(m, devA) {
		t.Fatal("uncapped semantics wrong")
	}
}

func TestBillingRollover(t *testing.T) {
	m := newMgr(1000)
	m.Record(devA, 900, t0)
	// Next month: usage resets, history records the period.
	next := time.Date(2013, 5, 2, 0, 0, 0, 0, time.UTC)
	m.Record(devA, 100, next)
	if m.Used() != 100 {
		t.Fatalf("used after rollover = %d", m.Used())
	}
	// Alerts reset too: 0.5 fires again in the new period.
	if a := m.Record(devA, 500, next.Add(time.Hour)); len(a) != 1 {
		t.Fatalf("alerts after rollover %v", a)
	}
}

func TestRolloverSkipsMultipleMonths(t *testing.T) {
	m := newMgr(1000)
	m.Record(devA, 500, t0)
	// Three months on, the open period is July's: a later July record
	// stays in it rather than rolling again.
	m.Record(devA, 10, t0.AddDate(0, 3, 0))
	m.Record(devA, 10, t0.AddDate(0, 3, 15))
	if m.Used() != 20 {
		t.Fatalf("used %d after skipping three months, want 20", m.Used())
	}
}

func TestProjection(t *testing.T) {
	m := newMgr(30000)
	// 10 days into a ~30-day period, 10000 used → projects ≈30000.
	tenDays := time.Date(2013, 4, 11, 0, 0, 0, 0, time.UTC)
	m.Record(devA, 10000, tenDays)
	proj := m.Projection(tenDays)
	if proj < 25000 || proj > 35000 {
		t.Fatalf("projection %d", proj)
	}
	if m.WillExceed(tenDays) {
		t.Fatal("projection should sit at the cap, not exceed")
	}
	m.Record(devA, 10000, tenDays)
	if !m.WillExceed(tenDays) {
		t.Fatal("doubled usage should project over cap")
	}
}

func TestThrottlePolicy(t *testing.T) {
	m := newMgr(1000)
	tp := ThrottlePolicy{StartAt: 0.9, HeavyShare: 0.5}
	m.Record(devA, 700, t0)
	m.Record(devB, 150, t0)
	// 85% used: nobody throttled.
	if tp.ShouldThrottle(m, devA) {
		t.Fatal("throttled below start threshold")
	}
	m.Record(devB, 60, t0) // 91%
	if !tp.ShouldThrottle(m, devA) {
		t.Fatal("heavy device not throttled at 91%")
	}
	if tp.ShouldThrottle(m, devB) {
		t.Fatal("light device throttled")
	}
	m.Record(devA, 100, t0) // over cap
	if !tp.ShouldThrottle(m, devB) {
		t.Fatal("over cap should throttle everyone")
	}
}

func TestThrottleUncapped(t *testing.T) {
	m := newMgr(0)
	m.Record(devA, 1e12, t0)
	if (ThrottlePolicy{}).ShouldThrottle(m, devA) {
		t.Fatal("uncapped plan throttled")
	}
}

func TestNegativeAndZeroRecordIgnored(t *testing.T) {
	m := newMgr(100)
	m.Record(devA, 0, t0)
	m.Record(devA, -50, t0)
	if m.Used() != 0 {
		t.Fatal("non-positive bytes recorded")
	}
}

func TestAlertString(t *testing.T) {
	a := Alert{At: t0, Threshold: 0.8, Used: 800, Cap: 1000}
	if s := a.String(); s == "" {
		t.Fatal("empty alert string")
	}
}
