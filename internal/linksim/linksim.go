// Package linksim simulates a broadband access link: a token-bucket
// shaper (the mechanism behind ISP speed tiers and "PowerBoost"-style
// bursts), a finite FIFO buffer whose oversizing is the "bufferbloat"
// phenomenon the paper cites for Fig. 16, propagation delay, random loss,
// and outage injection.
//
// The model is a deterministic fluid queue driven by the simulated clock:
// each direction tracks when its transmitter frees up; a packet arriving
// while the queue's worth of backlog exceeds the buffer is tail-dropped.
// This reproduces the two observable artifacts the paper leans on:
//
//   - ShaperProbe packet trains measure the token-fill (sustained) rate
//     once the bucket drains, and the peak rate before that;
//   - senders that keep the uplink saturated fill the buffer, so their
//     *measured* throughput momentarily exceeds the shaped capacity
//     (utilization > 1 in Fig. 15/16) while latency balloons.
package linksim

import (
	"time"

	"natpeek/internal/clock"
	"natpeek/internal/rng"
)

// mtu bounds packet size in bytes; Send clamps larger packets to it.
const mtu = 1500

// Direction is one direction of an access link. Not safe for concurrent
// use; drive it from the clock goroutine.
type Direction struct {
	clk *clock.Sim
	rnd *rng.Stream

	rate      float64 // sustained rate, bytes/sec (token fill)
	peakRate  float64 // line rate while bucket has tokens, bytes/sec
	bucketCap float64 // token bucket depth, bytes (0 = no burst)
	buffer    int     // queue capacity, bytes
	propDelay time.Duration
	lossProb  float64
	outage    bool

	tokens    float64
	tokensAt  time.Time
	busyUntil time.Time
	queued    int // bytes currently in the buffer

	stats Stats
}

// Stats counts a direction's activity.
type Stats struct {
	Offered    int64 // packets handed to Send
	Delivered  int64
	DroppedBuf int64 // tail drops (buffer full)
	DroppedErr int64 // random loss
	DroppedOut int64 // outage
	Bytes      int64 // delivered bytes
}

// Config describes one direction.
type Config struct {
	// RateBps is the sustained shaped rate in bits per second.
	RateBps float64
	// PeakBps is the burst line rate in bits per second; 0 disables
	// bursting (peak = sustained).
	PeakBps float64
	// BurstBytes is the token bucket depth. 0 disables bursting.
	BurstBytes int
	// BufferBytes is the FIFO depth. Consumer gear famously oversizes
	// this; 256 KB on a 1 Mbps uplink is two seconds of bloat.
	BufferBytes int
	// PropDelay is one-way propagation delay.
	PropDelay time.Duration
	// LossProb is i.i.d. random loss probability per packet.
	LossProb float64
}

// New returns a direction driven by clk. The rng stream may be nil when
// LossProb is 0.
func New(clk *clock.Sim, rnd *rng.Stream, cfg Config) *Direction {
	if cfg.RateBps <= 0 {
		panic("linksim: non-positive rate")
	}
	if cfg.BufferBytes <= 0 {
		cfg.BufferBytes = 64 * 1024
	}
	peak := cfg.PeakBps
	if peak < cfg.RateBps {
		peak = cfg.RateBps
	}
	d := &Direction{
		clk:       clk,
		rnd:       rnd,
		rate:      cfg.RateBps / 8,
		peakRate:  peak / 8,
		bucketCap: float64(cfg.BurstBytes),
		buffer:    cfg.BufferBytes,
		propDelay: cfg.PropDelay,
		lossProb:  cfg.LossProb,
		tokens:    float64(cfg.BurstBytes),
		tokensAt:  clk.Now(),
	}
	return d
}

// SetOutage switches the direction's outage state. During an outage every
// packet is dropped (the modem is down or the ISP path is dead).
func (d *Direction) SetOutage(down bool) { d.outage = down }

// Outage reports the current outage state.
func (d *Direction) Outage() bool { return d.outage }

// RateBps returns the sustained shaped rate in bits per second.
func (d *Direction) RateBps() float64 { return d.rate * 8 }

// Stats returns a copy of the direction's counters.
func (d *Direction) Stats() Stats { return d.stats }

// QueueDelay returns how long a packet arriving now would wait before
// transmission begins — the bufferbloat latency.
func (d *Direction) QueueDelay() time.Duration {
	now := d.clk.Now()
	if d.busyUntil.After(now) {
		return d.busyUntil.Sub(now)
	}
	return 0
}

// Send offers a packet of size bytes to the link. If accepted, deliver
// (may be nil) is invoked on the clock when the last byte arrives at the
// far end. Send reports whether the packet was accepted.
func (d *Direction) Send(size int, deliver func(at time.Time)) bool {
	now := d.clk.Now()
	d.stats.Offered++
	if size <= 0 {
		size = 1
	}
	if size > mtu {
		size = mtu
	}
	if d.outage {
		d.stats.DroppedOut++
		return false
	}
	if d.rnd != nil && d.lossProb > 0 && d.rnd.Bool(d.lossProb) {
		d.stats.DroppedErr++
		return false
	}
	// Tail drop when the backlog exceeds the buffer.
	if d.queued+size > d.buffer {
		d.stats.DroppedBuf++
		return false
	}

	// Refill tokens.
	if d.bucketCap > 0 {
		elapsed := now.Sub(d.tokensAt).Seconds()
		d.tokens += elapsed * d.rate
		if d.tokens > d.bucketCap {
			d.tokens = d.bucketCap
		}
		d.tokensAt = now
	}

	// Service rate for this packet: peak while tokens cover it, sustained
	// otherwise.
	rate := d.rate
	if d.bucketCap > 0 && d.tokens >= float64(size) {
		rate = d.peakRate
		d.tokens -= float64(size)
	}
	txTime := time.Duration(float64(size) / rate * float64(time.Second))

	start := now
	if d.busyUntil.After(start) {
		start = d.busyUntil
	}
	done := start.Add(txTime)
	d.busyUntil = done
	d.queued += size
	arrive := done.Add(d.propDelay)

	d.stats.Delivered++
	d.stats.Bytes += int64(size)
	sz := size
	d.clk.At(done, func(time.Time) { d.queued -= sz })
	if deliver != nil {
		d.clk.At(arrive, deliver)
	}
	return true
}

// Link is a bidirectional access link.
type Link struct {
	Up   *Direction
	Down *Direction
}

// NewLink builds a link from per-direction configs.
func NewLink(clk *clock.Sim, rnd *rng.Stream, up, down Config) *Link {
	var upRnd, downRnd *rng.Stream
	if rnd != nil {
		upRnd, downRnd = rnd.Child("up"), rnd.Child("down")
	}
	return &Link{
		Up:   New(clk, upRnd, up),
		Down: New(clk, downRnd, down),
	}
}

// SetOutage switches both directions at once (a modem or ISP failure
// takes the whole link down).
func (l *Link) SetOutage(down bool) {
	l.Up.SetOutage(down)
	l.Down.SetOutage(down)
}

// Outage reports whether the link is down (either direction).
func (l *Link) Outage() bool { return l.Up.Outage() || l.Down.Outage() }
