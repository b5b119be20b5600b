// Package eventsim layers recurring-task scheduling on top of the
// simulated clock. The gateway agent's duties are all periodic — heartbeats
// every minute, uptime and capacity every 12 hours, device census hourly,
// WiFi scans every 10 minutes — and the world simulator runs hundreds of
// such schedules concurrently. This package gives each a cancellable handle
// and optional jitter so the fleet does not fire in lockstep (the real
// deployment's routers were not phase-aligned either).
package eventsim

import (
	"time"

	"natpeek/internal/clock"
	"natpeek/internal/rng"
	"natpeek/internal/telemetry"
)

// Scheduler runs recurring and one-shot tasks on a simulated clock.
type Scheduler struct {
	clk *clock.Sim
	rnd *rng.Stream

	// Simulator-progress telemetry: every fired task bumps the shared
	// event counter and stamps the simulated-time gauge, so a debug
	// listener shows how far and how fast a run has advanced
	// (rate(natpeek_sim_events_total) is the events/sec of the fleet).
	mEvents  *telemetry.Counter
	gSimTime *telemetry.Gauge
}

// New returns a Scheduler driving tasks on clk. The stream provides jitter;
// it may be nil when no task uses jitter.
func New(clk *clock.Sim, rnd *rng.Stream) *Scheduler {
	return &Scheduler{
		clk: clk,
		rnd: rnd,
		mEvents: telemetry.Default.Counter("natpeek_sim_events_total",
			"Scheduler task firings across all simulated schedules."),
		gSimTime: telemetry.Default.Gauge("natpeek_sim_time_seconds",
			"Simulated unix time of the most recent task firing."),
	}
}

// fired records one task firing for the progress telemetry.
func (s *Scheduler) fired(now time.Time) {
	s.mEvents.Inc()
	s.gSimTime.Set(float64(now.Unix()))
}

// Clock returns the underlying simulated clock.
func (s *Scheduler) Clock() *clock.Sim { return s.clk }

// Task is a handle to a scheduled task.
type Task struct {
	cancelled bool
}

// Cancel stops future firings. Cancelling an already-cancelled task is a
// no-op. Cancel must be called from the clock-driving goroutine (i.e. from
// inside a callback or between Advance calls).
func (t *Task) Cancel() { t.cancelled = true }

// Cancelled reports whether Cancel has been called.
func (t *Task) Cancelled() bool { return t.cancelled }

// At schedules fn once at the absolute instant at.
func (s *Scheduler) At(at time.Time, fn func(now time.Time)) *Task {
	t := &Task{}
	s.clk.At(at, func(now time.Time) {
		if !t.cancelled {
			s.fired(now)
			fn(now)
		}
	})
	return t
}

// After schedules fn once after d.
func (s *Scheduler) After(d time.Duration, fn func(now time.Time)) *Task {
	t := &Task{}
	s.clk.AfterFunc(d, func(now time.Time) {
		if !t.cancelled {
			s.fired(now)
			fn(now)
		}
	})
	return t
}

// Every schedules fn every interval, starting one interval from now, until
// cancelled. A positive jitter adds an independent uniform [0, jitter)
// delay to each firing; the base phase stays fixed so jitter never
// accumulates into drift.
func (s *Scheduler) Every(interval, jitter time.Duration, fn func(now time.Time)) *Task {
	if interval <= 0 {
		panic("eventsim: non-positive interval")
	}
	t := &Task{}
	next := s.clk.Now().Add(interval)
	s.scheduleRecur(t, next, interval, jitter, fn)
	return t
}

func (s *Scheduler) scheduleRecur(t *Task, at time.Time, interval, jitter time.Duration, fn func(now time.Time)) {
	fireAt := at
	if jitter > 0 && s.rnd != nil {
		fireAt = fireAt.Add(time.Duration(s.rnd.Int63() % int64(jitter)))
	}
	s.clk.At(fireAt, func(now time.Time) {
		if t.cancelled {
			return
		}
		s.fired(now)
		fn(now)
		if !t.cancelled {
			s.scheduleRecur(t, at.Add(interval), interval, jitter, fn)
		}
	})
}

// Window schedules fn every interval, but only for firings that fall within
// [from, to). The task self-cancels after to. This models measurement
// campaigns with bounded date ranges (each dataset in Table 2 covers a
// different window).
func (s *Scheduler) Window(from, to time.Time, interval time.Duration, fn func(now time.Time)) *Task {
	if interval <= 0 {
		panic("eventsim: non-positive interval")
	}
	t := &Task{}
	var recur func(at time.Time)
	recur = func(at time.Time) {
		if !at.Before(to) {
			t.cancelled = true
			return
		}
		s.clk.At(at, func(now time.Time) {
			if t.cancelled {
				return
			}
			s.fired(now)
			fn(now)
			if !t.cancelled {
				recur(at.Add(interval))
			}
		})
	}
	start := from
	if start.Before(s.clk.Now()) {
		start = s.clk.Now()
	}
	recur(start)
	return t
}
