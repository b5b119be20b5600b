package capture_test

import (
	"net/netip"
	"testing"
	"time"

	"natpeek/internal/anonymize"
	"natpeek/internal/capture"
	"natpeek/internal/mac"
	"natpeek/internal/packet"
)

// BenchmarkTelemetryCaptureProcess measures the full per-frame cost of
// the instrumented capture path — the end-to-end number the telemetry
// counter benchmarks (internal/telemetry) protect.
func BenchmarkTelemetryCaptureProcess(b *testing.B) {
	gw := mac.MustParse("20:4e:7f:00:00:01")
	dev := mac.MustParse("a4:b1:97:00:00:0a")
	bld := packet.NewBuilder(dev, gw)
	frame := bld.TCPv4(
		netip.MustParseAddr("192.168.1.10"), netip.MustParseAddr("203.0.113.80"),
		packet.TCP{SrcPort: 5000, DstPort: 443, Flags: packet.FlagACK}, 64,
		make([]byte, 400))
	m := capture.New(capture.Config{
		LANPrefix: netip.MustParsePrefix("192.168.1.0/24"),
	}, anonymize.New([]byte("k")))
	t0 := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Process(frame, capture.Upstream, t0.Add(time.Duration(i)*time.Millisecond))
	}
}
