package gateway

import (
	"testing"
	"time"

	"natpeek/internal/mac"
)

// Regression tests for two measurement-path bugs: flows exported
// mid-life with partial totals (the flushTraffic export watermark), and
// the WiFi scan throttle sharing one skip counter across both radios.

// TestFlowExportWaitsForFinalTotals: a flow that is still alive at
// report time must NOT be exported with partial counts; it is exported
// exactly once, after it idles out, with its final totals. The old
// index-watermark export shipped the live flow at the first flush (5
// packets) and never shipped the complete record.
func TestFlowExportWaitsForFinalTotals(t *testing.T) {
	f := newFixture(t, true)
	f.agent.PowerOn(f.sched)

	makeFlowFrames(f, 5)
	f.agent.flushTraffic(f.clk.Now())
	if n := len(f.sink.flows); n != 0 {
		t.Fatalf("live flow exported mid-life with partial totals: %+v", f.sink.flows)
	}

	// The same flow keeps talking after the report.
	makeFlowFrames(f, 5)

	// Idle it past the 5-minute flow timeout, then report again.
	f.clk.Advance(10 * time.Minute)
	f.agent.flushTraffic(f.clk.Now())
	if n := len(f.sink.flows); n != 1 {
		t.Fatalf("finished flow exported %d times, want 1", n)
	}
	if got := f.sink.flows[0].UpPkts; got != 10 {
		t.Fatalf("exported UpPkts = %d, want 10 (final totals, not a mid-life snapshot)", got)
	}

	// And never again.
	f.clk.Advance(10 * time.Minute)
	f.agent.flushTraffic(f.clk.Now())
	if n := len(f.sink.flows); n != 1 {
		t.Fatalf("finished flow re-exported: %d records", n)
	}
}

// TestPowerOffExportsLiveFlows: power-off finishes every live flow so
// its totals are not lost with the process (the firmware persisted its
// buffers to flash for the same reason).
func TestPowerOffExportsLiveFlows(t *testing.T) {
	f := newFixture(t, true)
	f.agent.PowerOn(f.sched)
	makeFlowFrames(f, 5)
	f.agent.PowerOff(f.clk.Now())
	if n := len(f.sink.flows); n != 1 {
		t.Fatalf("flows exported at power-off = %d, want 1", n)
	}
	if got := f.sink.flows[0].UpPkts; got != 5 {
		t.Fatalf("power-off export UpPkts = %d, want 5", got)
	}
}

// TestScanThrottleIndependentPerRadio: with clients associated on BOTH
// bands and an even throttle, each radio must still scan every
// scanThrottle-th pass. The old shared skip counter alternated between
// the radios, so one band scanned every pass and the other never did.
func TestScanThrottleIndependentPerRadio(t *testing.T) {
	f := newFixture(t, false)
	f.agent.cfg.scanThrottle = 2
	f.env.Radio24.Associate(mac.MustParse("a4:b1:97:00:00:21"))
	f.env.Radio5.Associate(mac.MustParse("00:24:8c:00:00:22"))

	const passes = 8
	for i := 0; i < passes; i++ {
		f.agent.scan(f.clk.Now())
	}
	perBand := make(map[string]int)
	for _, s := range f.sink.scans {
		perBand[s.Band]++
	}
	want := passes / 2
	if perBand["2.4GHz"] != want || perBand["5GHz"] != want {
		t.Fatalf("scans per band = %v, want %d each (a shared throttle counter starves one radio)",
			perBand, want)
	}
}

// TestScanThrottleOnlyAppliesToBusyRadio: a radio without clients is
// never throttled, regardless of what the other radio is doing.
func TestScanThrottleOnlyAppliesToBusyRadio(t *testing.T) {
	f := newFixture(t, false)
	f.agent.cfg.scanThrottle = 3
	f.env.Radio24.Associate(mac.MustParse("a4:b1:97:00:00:23")) // only 2.4 GHz is busy

	const passes = 6
	for i := 0; i < passes; i++ {
		f.agent.scan(f.clk.Now())
	}
	perBand := make(map[string]int)
	for _, s := range f.sink.scans {
		perBand[s.Band]++
	}
	if perBand["5GHz"] != passes {
		t.Fatalf("idle 5 GHz radio scanned %d of %d passes, want every pass", perBand["5GHz"], passes)
	}
	if perBand["2.4GHz"] != passes/3 {
		t.Fatalf("busy 2.4 GHz radio scanned %d of %d passes, want %d", perBand["2.4GHz"], passes, passes/3)
	}
}
