package shaperprobe

import (
	"math"
	"testing"
	"time"

	"natpeek/internal/clock"
	"natpeek/internal/linksim"
	"natpeek/internal/rng"
)

var epoch = time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)

func within(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*want
}

func TestEstimatesPlainShapedLink(t *testing.T) {
	clk := clock.NewSim(epoch)
	// 10 Mbps, no burst, roomy buffer.
	dir := linksim.New(clk, nil, linksim.Config{RateBps: 10e6, BufferBytes: 1 << 20})
	e := ProbeSync(clk, dir, Config{})
	if !within(e.SustainedBps, 10e6, 0.05) {
		t.Fatalf("sustained = %.0f, want ≈10e6", e.SustainedBps)
	}
	if e.BurstDetected {
		t.Fatal("burst detected on a plain link")
	}
	if e.Delivered != 100 || e.Lost != 0 {
		t.Fatalf("delivered/lost = %d/%d", e.Delivered, e.Lost)
	}
}

func TestDetectsTokenBucketBurst(t *testing.T) {
	clk := clock.NewSim(epoch)
	// Sustained 5 Mbps, PowerBoost to 20 Mbps for the first 50 KB.
	dir := linksim.New(clk, nil, linksim.Config{
		RateBps: 5e6, PeakBps: 20e6, BurstBytes: 50_000, BufferBytes: 1 << 20,
	})
	e := ProbeSync(clk, dir, Config{TrainLength: 200})
	if !e.BurstDetected {
		t.Fatal("token bucket not detected")
	}
	if !within(e.SustainedBps, 5e6, 0.1) {
		t.Fatalf("sustained = %.0f, want ≈5e6", e.SustainedBps)
	}
	if !within(e.PeakBps, 20e6, 0.15) {
		t.Fatalf("peak = %.0f, want ≈20e6", e.PeakBps)
	}
}

func TestAsymmetricLinkDirections(t *testing.T) {
	clk := clock.NewSim(epoch)
	link := linksim.NewLink(clk, nil,
		linksim.Config{RateBps: 1e6, BufferBytes: 1 << 20},  // up
		linksim.Config{RateBps: 16e6, BufferBytes: 1 << 20}, // down
	)
	up := ProbeSync(clk, link.Up, Config{})
	down := ProbeSync(clk, link.Down, Config{})
	if !within(up.SustainedBps, 1e6, 0.05) {
		t.Fatalf("up = %.0f", up.SustainedBps)
	}
	if !within(down.SustainedBps, 16e6, 0.05) {
		t.Fatalf("down = %.0f", down.SustainedBps)
	}
}

func TestOutageYieldsZeroEstimate(t *testing.T) {
	clk := clock.NewSim(epoch)
	dir := linksim.New(clk, nil, linksim.Config{RateBps: 10e6})
	dir.SetOutage(true)
	e := ProbeSync(clk, dir, Config{})
	if e.SustainedBps != 0 || e.Delivered != 0 || e.Lost != 100 {
		t.Fatalf("outage estimate %+v", e)
	}
}

func TestSurvivesRandomLoss(t *testing.T) {
	clk := clock.NewSim(epoch)
	dir := linksim.New(clk, rng.New(5), linksim.Config{RateBps: 10e6, BufferBytes: 1 << 20, LossProb: 0.05})
	e := ProbeSync(clk, dir, Config{TrainLength: 200})
	if e.Lost == 0 {
		t.Fatal("no loss at p=0.05?")
	}
	if !within(e.SustainedBps, 10e6, 0.15) {
		t.Fatalf("lossy estimate %.0f, want ≈10e6", e.SustainedBps)
	}
}

func TestBufferOverflowStillEstimates(t *testing.T) {
	clk := clock.NewSim(epoch)
	// Tiny buffer: most of a 100-packet train tail-drops, but the
	// delivered prefix still reveals the rate.
	dir := linksim.New(clk, nil, linksim.Config{RateBps: 10e6, BufferBytes: 20_000})
	e := ProbeSync(clk, dir, Config{})
	if e.Lost == 0 {
		t.Fatal("expected tail drops")
	}
	if e.Delivered < 10 {
		t.Fatalf("delivered only %d", e.Delivered)
	}
	if !within(e.SustainedBps, 10e6, 0.15) {
		t.Fatalf("estimate %.0f under overflow", e.SustainedBps)
	}
}

func TestProbeIsAsync(t *testing.T) {
	clk := clock.NewSim(epoch)
	dir := linksim.New(clk, nil, linksim.Config{RateBps: 10e6, BufferBytes: 1 << 20})
	called := false
	Probe(clk, dir, Config{}, func(Estimate) { called = true })
	if called {
		t.Fatal("done invoked synchronously")
	}
	clk.Run(epoch.Add(time.Minute))
	if !called {
		t.Fatal("done never invoked")
	}
}

func TestTimeoutProducesPartialEstimate(t *testing.T) {
	clk := clock.NewSim(epoch)
	// 10 kbps: a 100×1400 B train takes ~18 min, far past the timeout.
	dir := linksim.New(clk, nil, linksim.Config{RateBps: 1e4, BufferBytes: 1 << 20})
	var e Estimate
	got := false
	Probe(clk, dir, Config{}, func(r Estimate) { e = r; got = true })
	clk.Run(epoch.Add(time.Hour))
	if !got {
		t.Fatal("timeout never fired")
	}
	if e.Delivered >= 100 {
		t.Fatal("expected partial delivery")
	}
}

func TestShortTrainTooSmall(t *testing.T) {
	clk := clock.NewSim(epoch)
	dir := linksim.New(clk, nil, linksim.Config{RateBps: 10e6, BufferBytes: 1 << 20})
	dir.SetOutage(false)
	var e Estimate
	Probe(clk, dir, Config{TrainLength: 2}, func(r Estimate) { e = r })
	clk.Run(epoch.Add(time.Minute))
	if e.SustainedBps != 0 {
		t.Fatal("2-packet train produced an estimate")
	}
	if e.Delivered != 2 {
		t.Fatalf("delivered = %d", e.Delivered)
	}
}

func TestTrainLengthAccuracyTradeoff(t *testing.T) {
	// Longer trains should not be *less* accurate on a bursty link: the
	// short train never exits the burst phase and overestimates.
	clkA := clock.NewSim(epoch)
	burst := linksim.Config{RateBps: 5e6, PeakBps: 50e6, BurstBytes: 100_000, BufferBytes: 1 << 20}
	short := ProbeSync(clkA, linksim.New(clkA, nil, burst), Config{TrainLength: 20})
	clkB := clock.NewSim(epoch)
	long := ProbeSync(clkB, linksim.New(clkB, nil, burst), Config{TrainLength: 400})
	errShort := math.Abs(short.SustainedBps - 5e6)
	errLong := math.Abs(long.SustainedBps - 5e6)
	if errLong > errShort {
		t.Fatalf("long train worse than short: %.0f vs %.0f", errLong, errShort)
	}
	if short.SustainedBps < 5e6 {
		t.Fatalf("short train should overestimate, got %.0f", short.SustainedBps)
	}
}

// TestAblationTrainLength is the train-length ablation (DESIGN.md §4):
// on a 5 Mbps link with a 300 KB PowerBoost bucket, trains of up to 150
// packets never leave the bucket, read its 40 Mbps peak and flag no
// burst; trains of 400 and more drain it, read the sustained 5.00 Mbps
// and flag the burst — §6.2's capacity is only meaningful post-burst.
func TestAblationTrainLength(t *testing.T) {
	boost := linksim.Config{RateBps: 5e6, PeakBps: 40e6, BurstBytes: 300_000, BufferBytes: 1 << 22}
	for _, c := range []struct {
		train int
		bps   float64
		burst bool
	}{{20, 40e6, false}, {60, 40e6, false}, {150, 40e6, false}, {400, 5e6, true}, {1000, 5e6, true}} {
		clk := clock.NewSim(epoch)
		e := ProbeSync(clk, linksim.New(clk, nil, boost), Config{TrainLength: c.train})
		t.Logf("train %-4d estimate %6.2f Mbps, burst detected %v", c.train, e.SustainedBps/1e6, e.BurstDetected)
		if !within(e.SustainedBps, c.bps, 0.001) {
			t.Errorf("train %d: estimate %.3f Mbps, want %.2f", c.train, e.SustainedBps/1e6, c.bps/1e6)
		}
		if e.BurstDetected != c.burst {
			t.Errorf("train %d: burst detected %v, want %v", c.train, e.BurstDetected, c.burst)
		}
	}
}
