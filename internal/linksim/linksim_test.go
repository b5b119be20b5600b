package linksim

import (
	"testing"
	"time"

	"natpeek/internal/clock"
	"natpeek/internal/rng"
)

var epoch = time.Date(2012, 10, 1, 0, 0, 0, 0, time.UTC)

// newDir returns a 8 Mbps direction (1 MB/s) with a 64 KB buffer.
func newDir(t *testing.T, cfg Config) (*Direction, *clock.Sim) {
	t.Helper()
	clk := clock.NewSim(epoch)
	if cfg.RateBps == 0 {
		cfg.RateBps = 8e6
	}
	return New(clk, rng.New(1), cfg), clk
}

func TestSingleDeliveryTiming(t *testing.T) {
	d, clk := newDir(t, Config{RateBps: 8e6, PropDelay: 10 * time.Millisecond})
	var at time.Time
	ok := d.Send(1000, func(ts time.Time) { at = ts })
	if !ok {
		t.Fatal("packet rejected")
	}
	clk.Run(epoch.Add(time.Second))
	// 1000 bytes at 1 MB/s = 1 ms tx + 10 ms prop.
	want := epoch.Add(11 * time.Millisecond)
	if !at.Equal(want) {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	d, clk := newDir(t, Config{RateBps: 8e6})
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if !d.Send(500, func(time.Time) { order = append(order, i) }) {
			t.Fatalf("packet %d rejected", i)
		}
	}
	clk.Run(epoch.Add(time.Second))
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v", order)
		}
	}
	if len(order) != 10 {
		t.Fatalf("delivered %d", len(order))
	}
}

func TestSustainedRateShapes(t *testing.T) {
	// 100 × 1000 B at 1 MB/s: last delivery ≈ 100 ms.
	d, clk := newDir(t, Config{RateBps: 8e6, BufferBytes: 200000})
	var last time.Time
	for i := 0; i < 100; i++ {
		d.Send(1000, func(ts time.Time) { last = ts })
	}
	clk.Run(epoch.Add(time.Second))
	want := epoch.Add(100 * time.Millisecond)
	if last.Before(want.Add(-time.Millisecond)) || last.After(want.Add(time.Millisecond)) {
		t.Fatalf("last delivery %v, want ≈%v", last, want)
	}
}

func TestTokenBucketBurstsThenShapes(t *testing.T) {
	// Sustained 1 MB/s, peak 10 MB/s, bucket 50 KB. A 100 KB train should
	// see the first ~50 KB depart at peak and the rest at sustained rate.
	clk := clock.NewSim(epoch)
	d := New(clk, nil, Config{RateBps: 8e6, PeakBps: 80e6, BurstBytes: 50000, BufferBytes: 1 << 20})
	var times []time.Time
	for i := 0; i < 100; i++ {
		d.Send(1000, func(ts time.Time) { times = append(times, ts) })
	}
	clk.Run(epoch.Add(time.Second))
	if len(times) != 100 {
		t.Fatalf("delivered %d", len(times))
	}
	// First 50 packets at 10 MB/s: 1000 B every 0.1 ms → packet 49 at ~5 ms.
	burstEnd := times[49].Sub(epoch)
	if burstEnd > 8*time.Millisecond {
		t.Fatalf("burst phase too slow: %v", burstEnd)
	}
	// Tail at 1 MB/s: inter-arrival ≈ 1 ms.
	tailGap := times[99].Sub(times[98])
	if tailGap < 900*time.Microsecond || tailGap > 1100*time.Microsecond {
		t.Fatalf("tail dispersion %v, want ≈1ms", tailGap)
	}
}

func TestTailDropWhenBufferFull(t *testing.T) {
	d, clk := newDir(t, Config{RateBps: 8e6, BufferBytes: 10000})
	accepted := 0
	for i := 0; i < 100; i++ {
		if d.Send(1000, nil) {
			accepted++
		}
	}
	if accepted != 10 {
		t.Fatalf("accepted %d packets into a 10-packet buffer", accepted)
	}
	st := d.Stats()
	if st.DroppedBuf != 90 {
		t.Fatalf("tail drops = %d", st.DroppedBuf)
	}
	clk.Run(epoch.Add(time.Second))
	if d.queued != 0 {
		t.Fatalf("queue not drained: %d", d.queued)
	}
}

func TestQueueDrainReopensBuffer(t *testing.T) {
	d, clk := newDir(t, Config{RateBps: 8e6, BufferBytes: 10000})
	for i := 0; i < 10; i++ {
		d.Send(1000, nil)
	}
	if d.Send(1000, nil) {
		t.Fatal("buffer should be full")
	}
	clk.Advance(5 * time.Millisecond) // half drained
	if !d.Send(1000, nil) {
		t.Fatal("buffer did not reopen after draining")
	}
}

func TestBufferbloatDelayGrows(t *testing.T) {
	// Big buffer + saturating sender → queue delay approaches
	// buffer/rate (256 KB at 1 MB/s ≈ 256 ms of bloat).
	d, clk := newDir(t, Config{RateBps: 8e6, BufferBytes: 256 * 1024})
	for i := 0; i < 300; i++ {
		d.Send(1400, nil)
	}
	delay := d.QueueDelay()
	if delay < 200*time.Millisecond {
		t.Fatalf("queue delay %v, want bloated (>200ms)", delay)
	}
	clk.Run(epoch.Add(time.Second))
	if d.QueueDelay() != 0 {
		t.Fatal("delay persists after drain")
	}
}

func TestOutageDropsEverything(t *testing.T) {
	d, _ := newDir(t, Config{RateBps: 8e6})
	d.SetOutage(true)
	if d.Send(100, nil) {
		t.Fatal("packet delivered during outage")
	}
	if d.Stats().DroppedOut != 1 {
		t.Fatal("outage drop not counted")
	}
	d.SetOutage(false)
	if !d.Send(100, nil) {
		t.Fatal("packet dropped after outage cleared")
	}
}

func TestRandomLossRate(t *testing.T) {
	clk := clock.NewSim(epoch)
	d := New(clk, rng.New(7), Config{RateBps: 8e9, BufferBytes: 1 << 30, LossProb: 0.2})
	dropped := 0
	for i := 0; i < 10000; i++ {
		if !d.Send(100, nil) {
			dropped++
		}
	}
	if dropped < 1800 || dropped > 2200 {
		t.Fatalf("dropped %d/10000 at p=0.2", dropped)
	}
}

func TestMTUClamp(t *testing.T) {
	d, clk := newDir(t, Config{RateBps: 8e6})
	var at time.Time
	d.Send(9000, func(ts time.Time) { at = ts })
	clk.Run(epoch.Add(time.Second))
	// Clamped to 1500 B at 1 MB/s = 1.5 ms.
	if !at.Equal(epoch.Add(1500 * time.Microsecond)) {
		t.Fatalf("delivered at %v", at)
	}
}

func TestStatsAccounting(t *testing.T) {
	d, clk := newDir(t, Config{RateBps: 8e6, BufferBytes: 5000})
	for i := 0; i < 10; i++ {
		d.Send(1000, nil)
	}
	clk.Run(epoch.Add(time.Second))
	st := d.Stats()
	if st.Offered != 10 || st.Delivered != 5 || st.DroppedBuf != 5 {
		t.Fatalf("stats %+v", st)
	}
	if st.Bytes != 5000 {
		t.Fatalf("bytes %d", st.Bytes)
	}
}

func TestLinkOutageBothDirections(t *testing.T) {
	clk := clock.NewSim(epoch)
	l := NewLink(clk, rng.New(1), Config{RateBps: 1e6}, Config{RateBps: 8e6})
	l.SetOutage(true)
	if !l.Outage() || !l.Up.Outage() || !l.Down.Outage() {
		t.Fatal("outage did not propagate")
	}
	l.SetOutage(false)
	if l.Outage() {
		t.Fatal("outage did not clear")
	}
}

func TestAsymmetricRates(t *testing.T) {
	clk := clock.NewSim(epoch)
	l := NewLink(clk, nil, Config{RateBps: 1e6}, Config{RateBps: 8e6})
	var upAt, downAt time.Time
	l.Up.Send(1000, func(ts time.Time) { upAt = ts })
	l.Down.Send(1000, func(ts time.Time) { downAt = ts })
	clk.Run(epoch.Add(time.Second))
	if !upAt.After(downAt) {
		t.Fatalf("uplink (%v) should be slower than downlink (%v)", upAt, downAt)
	}
}

func TestZeroRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(clock.NewSim(epoch), nil, Config{})
}

func TestIdleBucketRefills(t *testing.T) {
	clk := clock.NewSim(epoch)
	d := New(clk, nil, Config{RateBps: 8e6, PeakBps: 80e6, BurstBytes: 10000, BufferBytes: 1 << 20})
	// Drain the bucket.
	for i := 0; i < 10; i++ {
		d.Send(1000, nil)
	}
	clk.Run(epoch.Add(time.Second))
	// After 1 s idle at 1 MB/s fill, bucket is full again → next packet
	// goes at peak: tx 1000 B at 10 MB/s = 0.1 ms.
	var at time.Time
	d.Send(1000, func(ts time.Time) { at = ts })
	clk.Run(epoch.Add(2 * time.Second))
	gap := at.Sub(epoch.Add(time.Second))
	if gap > 200*time.Microsecond {
		t.Fatalf("bucket did not refill: tx took %v", gap)
	}
}

func TestConservationProperty(t *testing.T) {
	// Offered = delivered + dropped, and delivered bytes equal the sum of
	// accepted sizes, across randomized workloads.
	for seed := uint64(1); seed <= 20; seed++ {
		clk := clock.NewSim(epoch)
		r := rng.New(seed)
		d := New(clk, r.Child("link"), Config{
			RateBps:     1e6 + r.Float64()*20e6,
			BufferBytes: 5000 + r.Intn(100000),
			LossProb:    r.Float64() * 0.1,
			PropDelay:   time.Duration(r.Intn(50)) * time.Millisecond,
		})
		delivered := 0
		var acceptedBytes int64
		for i := 0; i < 500; i++ {
			size := 40 + r.Intn(1460)
			if d.Send(size, func(time.Time) { delivered++ }) {
				acceptedBytes += int64(size)
			}
			if r.Bool(0.1) {
				clk.Advance(time.Duration(r.Intn(50)) * time.Millisecond)
			}
		}
		clk.Run(epoch.Add(time.Hour))
		st := d.Stats()
		if st.Offered != 500 {
			t.Fatalf("seed %d: offered %d", seed, st.Offered)
		}
		if st.Delivered+st.DroppedBuf+st.DroppedErr+st.DroppedOut != st.Offered {
			t.Fatalf("seed %d: conservation broken: %+v", seed, st)
		}
		if int64(delivered) != st.Delivered {
			t.Fatalf("seed %d: callbacks %d vs stat %d", seed, delivered, st.Delivered)
		}
		if st.Bytes != acceptedBytes {
			t.Fatalf("seed %d: bytes %d vs accepted %d", seed, st.Bytes, acceptedBytes)
		}
		if d.queued != 0 {
			t.Fatalf("seed %d: queue not drained: %d", seed, d.queued)
		}
	}
}

func TestDeliveryNeverBeforeSend(t *testing.T) {
	clk := clock.NewSim(epoch)
	r := rng.New(9)
	d := New(clk, nil, Config{RateBps: 2e6, BufferBytes: 1 << 20, PropDelay: 7 * time.Millisecond})
	violations := 0
	for i := 0; i < 200; i++ {
		sentAt := clk.Now()
		d.Send(100+r.Intn(1400), func(at time.Time) {
			if at.Before(sentAt.Add(7 * time.Millisecond)) {
				violations++
			}
		})
		clk.Advance(time.Duration(r.Intn(10)) * time.Millisecond)
	}
	clk.Run(epoch.Add(time.Hour))
	if violations > 0 {
		t.Fatalf("%d deliveries before minimum latency", violations)
	}
}
