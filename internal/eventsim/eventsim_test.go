package eventsim

import (
	"testing"
	"time"

	"natpeek/internal/clock"
	"natpeek/internal/rng"
)

var epoch = time.Date(2012, 10, 1, 0, 0, 0, 0, time.UTC)

func newSched() (*Scheduler, *clock.Sim) {
	clk := clock.NewSim(epoch)
	return New(clk, rng.New(1)), clk
}

func TestAfterFiresOnce(t *testing.T) {
	s, clk := newSched()
	n := 0
	s.After(time.Minute, func(time.Time) { n++ })
	clk.Advance(time.Hour)
	if n != 1 {
		t.Fatalf("fired %d times", n)
	}
}

func TestAtAbsolute(t *testing.T) {
	s, clk := newSched()
	var at time.Time
	s.At(epoch.Add(5*time.Minute), func(now time.Time) { at = now })
	clk.Advance(10 * time.Minute)
	if !at.Equal(epoch.Add(5 * time.Minute)) {
		t.Fatalf("fired at %v", at)
	}
}

func TestCancelBeforeFire(t *testing.T) {
	s, clk := newSched()
	n := 0
	task := s.After(time.Minute, func(time.Time) { n++ })
	task.Cancel()
	clk.Advance(time.Hour)
	if n != 0 {
		t.Fatal("cancelled task fired")
	}
}

func TestEveryFiresRepeatedly(t *testing.T) {
	s, clk := newSched()
	n := 0
	s.Every(time.Minute, 0, func(time.Time) { n++ })
	clk.Advance(10*time.Minute + time.Second)
	if n != 10 {
		t.Fatalf("fired %d times, want 10", n)
	}
}

func TestEveryPhaseIsStable(t *testing.T) {
	s, clk := newSched()
	var times []time.Time
	s.Every(time.Minute, 0, func(now time.Time) { times = append(times, now) })
	clk.Advance(5 * time.Minute)
	for i, ts := range times {
		want := epoch.Add(time.Duration(i+1) * time.Minute)
		if !ts.Equal(want) {
			t.Fatalf("firing %d at %v, want %v", i, ts, want)
		}
	}
}

func TestEveryCancelStopsFutureFirings(t *testing.T) {
	s, clk := newSched()
	n := 0
	var task *Task
	task = s.Every(time.Minute, 0, func(time.Time) {
		n++
		if n == 3 {
			task.Cancel()
		}
	})
	clk.Advance(time.Hour)
	if n != 3 {
		t.Fatalf("fired %d times, want 3", n)
	}
}

func TestEveryJitterBoundedAndNonDrifting(t *testing.T) {
	s, clk := newSched()
	jitter := 10 * time.Second
	var times []time.Time
	s.Every(time.Minute, jitter, func(now time.Time) { times = append(times, now) })
	clk.Advance(30 * time.Minute)
	if len(times) < 25 {
		t.Fatalf("only %d firings", len(times))
	}
	for i, ts := range times {
		base := epoch.Add(time.Duration(i+1) * time.Minute)
		off := ts.Sub(base)
		if off < 0 || off >= jitter {
			t.Fatalf("firing %d offset %v outside [0, %v)", i, off, jitter)
		}
	}
}

func TestEveryPanicsOnNonPositiveInterval(t *testing.T) {
	s, _ := newSched()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Every(0, 0, func(time.Time) {})
}

func TestWindowRespectsBounds(t *testing.T) {
	s, clk := newSched()
	from := epoch.Add(time.Hour)
	to := epoch.Add(2 * time.Hour)
	var times []time.Time
	s.Window(from, to, 10*time.Minute, func(now time.Time) { times = append(times, now) })
	clk.Advance(5 * time.Hour)
	if len(times) != 6 { // 1:00 1:10 ... 1:50
		t.Fatalf("fired %d times: %v", len(times), times)
	}
	for _, ts := range times {
		if ts.Before(from) || !ts.Before(to) {
			t.Fatalf("firing %v outside window", ts)
		}
	}
}

func TestWindowStartInPastClamps(t *testing.T) {
	s, clk := newSched()
	clk.Advance(time.Hour) // now = epoch+1h
	n := 0
	s.Window(epoch, epoch.Add(90*time.Minute), 10*time.Minute, func(time.Time) { n++ })
	clk.Advance(3 * time.Hour)
	if n == 0 {
		t.Fatal("window starting in the past never fired")
	}
}

func TestWindowCancelMidway(t *testing.T) {
	s, clk := newSched()
	n := 0
	var task *Task
	task = s.Window(epoch.Add(time.Minute), epoch.Add(time.Hour), time.Minute, func(time.Time) {
		n++
		if n == 5 {
			task.Cancel()
		}
	})
	clk.Advance(2 * time.Hour)
	if n != 5 {
		t.Fatalf("fired %d times, want 5", n)
	}
}

func TestManyTasksInterleave(t *testing.T) {
	s, clk := newSched()
	counts := make([]int, 10)
	for i := 0; i < 10; i++ {
		i := i
		s.Every(time.Duration(i+1)*time.Minute, 0, func(time.Time) { counts[i]++ })
	}
	clk.Advance(60 * time.Minute)
	for i, c := range counts {
		want := 60 / (i + 1)
		if c != want {
			t.Fatalf("task %d fired %d times, want %d", i, c, want)
		}
	}
}
