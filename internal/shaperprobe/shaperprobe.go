// Package shaperprobe estimates access-link capacity the way the paper's
// routers did every twelve hours with ShaperProbe [30]: emit a back-to-back
// UDP packet train and read the shaped rate out of the train's dispersion
// at the far end. Token-bucket shapers give such trains a two-phase
// signature — an initial burst served at the peak (line) rate while the
// bucket has tokens, then a level shift down to the sustained (token-fill)
// rate. The estimator reports both levels; the sustained rate is the
// "Capacity" the study's §6.2 utilization analysis divides by.
package shaperprobe

import (
	"sort"
	"time"

	"natpeek/internal/clock"
	"natpeek/internal/linksim"
)

// packetSize is the probe packet size in bytes.
const packetSize = 1400

// probeTimeout abandons the probe if deliveries stall.
const probeTimeout = 30 * time.Second

// Config tunes a probe.
type Config struct {
	// TrainLength is the number of packets per train (default 100).
	TrainLength int
}

func (c *Config) fill() {
	if c.TrainLength <= 0 {
		c.TrainLength = 100
	}
}

// Estimate is a probe result.
type Estimate struct {
	// SustainedBps is the post-burst shaped rate (bits/second) — the
	// capacity figure the study records.
	SustainedBps float64
	// PeakBps is the pre-levelshift burst rate; equal to SustainedBps on
	// links without a token bucket.
	PeakBps float64
	// BurstDetected reports whether a level shift was observed.
	BurstDetected bool
	// Delivered is how many train packets arrived.
	Delivered int
	// Lost is how many were dropped (loss, overflow, or outage).
	Lost int
	// Duration spans first to last delivery.
	Duration time.Duration
}

// Probe launches a train on dir and invokes done with the estimate once
// the train completes (or the timeout fires). It is asynchronous: the
// caller keeps driving the simulated clock. A probe over a link in outage
// reports a zero estimate with Lost == TrainLength.
func Probe(clk *clock.Sim, dir *linksim.Direction, cfg Config, done func(Estimate)) {
	cfg.fill()
	var arrivals []time.Time
	sent := 0
	lost := 0
	finished := false

	finish := func() {
		if finished {
			return
		}
		finished = true
		done(analyze(arrivals, lost))
	}

	for i := 0; i < cfg.TrainLength; i++ {
		ok := dir.Send(packetSize, func(at time.Time) {
			arrivals = append(arrivals, at)
			if len(arrivals)+lost == sent && len(arrivals) == cfg.TrainLength-lost {
				finish()
			}
		})
		sent++
		if !ok {
			lost++
		}
	}
	if lost == cfg.TrainLength {
		// Nothing in flight; report immediately (still async for a
		// consistent caller contract).
		clk.AfterFunc(0, func(time.Time) { finish() })
		return
	}
	clk.AfterFunc(probeTimeout, func(time.Time) { finish() })
}

// analyze converts arrival timestamps into rate levels. It computes
// per-gap instantaneous rates and splits them into "burst" and
// "sustained" phases at the largest sustained level shift.
func analyze(arrivals []time.Time, lost int) Estimate {
	e := Estimate{Delivered: len(arrivals), Lost: lost}
	if len(arrivals) < 3 {
		return e
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].Before(arrivals[j]) })
	e.Duration = arrivals[len(arrivals)-1].Sub(arrivals[0])

	rates := make([]float64, 0, len(arrivals)-1)
	for i := 1; i < len(arrivals); i++ {
		gap := arrivals[i].Sub(arrivals[i-1]).Seconds()
		if gap <= 0 {
			continue
		}
		rates = append(rates, float64(packetSize*8)/gap)
	}
	if len(rates) == 0 {
		return e
	}

	// The sustained rate is the median of the last third of gaps — by
	// then any token bucket has drained.
	tail := rates[len(rates)*2/3:]
	if len(tail) == 0 {
		tail = rates
	}
	e.SustainedBps = median(tail)

	// The peak rate is the median of the first third.
	head := rates[:max(1, len(rates)/3)]
	e.PeakBps = median(head)
	if e.PeakBps < e.SustainedBps {
		e.PeakBps = e.SustainedBps
	}
	// A level shift of >25% marks a detected burst phase.
	e.BurstDetected = e.PeakBps > 1.25*e.SustainedBps
	return e
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ProbeSync is a convenience for tests and one-shot tools: it runs the
// clock forward until the probe completes and returns the estimate. The
// clock must not be concurrently driven elsewhere.
func ProbeSync(clk *clock.Sim, dir *linksim.Direction, cfg Config) Estimate {
	var result Estimate
	got := false
	Probe(clk, dir, cfg, func(e Estimate) {
		result = e
		got = true
	})
	limit := clk.Now().Add(5 * time.Minute)
	for !got && clk.Now().Before(limit) && clk.Pending() > 0 {
		clk.Run(limit)
	}
	return result
}
