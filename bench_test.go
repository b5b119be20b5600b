package natpeek

// The benchmark harness regenerates every table and figure of the paper
// from one full study run and prints the rows/series each exhibit
// reports (once per bench), so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction driver. Timings measure the analysis
// (dataset → exhibit), not the one-time world build.
//
// Set NATPEEK_BENCH_SCALE to change the deployment scale (default 0.5;
// 1.0 is the paper's full 126 homes and takes ~25 s to build).

import (
	"fmt"
	"net/netip"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/anonymize"
	"natpeek/internal/capture"
	"natpeek/internal/clock"
	"natpeek/internal/dataset"
	"natpeek/internal/domains"
	"natpeek/internal/figures"
	"natpeek/internal/geo"
	"natpeek/internal/household"
	"natpeek/internal/linksim"
	"natpeek/internal/mac"
	"natpeek/internal/packet"
	"natpeek/internal/rng"
	"natpeek/internal/shaperprobe"
	"natpeek/internal/stats"
	"natpeek/internal/trafficgen"
	"natpeek/internal/world"
)

var (
	benchOnce  sync.Once
	benchStore *dataset.Store
	benchWin   figures.Windows
	printed    sync.Map
)

func benchStudy(b *testing.B) (*dataset.Store, figures.Windows) {
	b.Helper()
	benchOnce.Do(func() {
		scale := 0.5
		if s := os.Getenv("NATPEEK_BENCH_SCALE"); s != "" {
			if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
				scale = v
			}
		}
		w := world.Build(world.Config{Seed: 1, Scale: scale})
		if err := w.Run(); err != nil {
			panic(err)
		}
		benchStore = w.Store
		benchWin = figures.DefaultWindows()
		fmt.Printf("\n[bench deployment: %d homes, scale %.2f]\n\n", len(w.Homes), scale)
	})
	return benchStore, benchWin
}

// exhibit prints the report once, then times its regeneration.
func exhibit(b *testing.B, gen func() *figures.Report) {
	b.Helper()
	r := gen()
	if _, dup := printed.LoadOrStore(r.ID, true); !dup {
		fmt.Println(r.String())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen()
	}
}

func BenchmarkTable1Deployment(b *testing.B) {
	st, _ := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Table1(st) })
}

func BenchmarkTable2Datasets(b *testing.B) {
	st, _ := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Table2(st) })
}

func BenchmarkFig3DowntimeFrequency(b *testing.B) {
	st, w := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Fig3(st, w) })
}

func BenchmarkFig4DowntimeDuration(b *testing.B) {
	st, w := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Fig4(st, w) })
}

func BenchmarkFig5GDPScatter(b *testing.B) {
	st, w := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Fig5(st, w) })
}

func BenchmarkFig6AvailabilityModes(b *testing.B) {
	st, w := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Fig6(st, w) })
}

func BenchmarkFig7DevicesPerHome(b *testing.B) {
	st, _ := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Fig7(st) })
}

func BenchmarkFig8WiredWireless(b *testing.B) {
	st, _ := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Fig8(st) })
}

func BenchmarkFig9SpectrumDevices(b *testing.B) {
	st, _ := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Fig9(st) })
}

func BenchmarkTable5AlwaysConnected(b *testing.B) {
	st, _ := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Table5(st) })
}

func BenchmarkFig10UniqueDevicesPerBand(b *testing.B) {
	st, _ := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Fig10(st) })
}

func BenchmarkFig11VisibleAPs(b *testing.B) {
	st, _ := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Fig11(st) })
}

func BenchmarkFig12Manufacturers(b *testing.B) {
	st, _ := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Fig12(st) })
}

func BenchmarkFig13Diurnal(b *testing.B) {
	st, _ := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Fig13(st) })
}

func BenchmarkFig14UtilizationTimeseries(b *testing.B) {
	st, _ := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Fig14(st) })
}

func BenchmarkFig15LinkSaturation(b *testing.B) {
	st, _ := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Fig15(st) })
}

func BenchmarkFig16Bufferbloat(b *testing.B) {
	st, _ := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Fig16(st) })
}

func BenchmarkFig17DeviceShare(b *testing.B) {
	st, _ := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Fig17(st) })
}

func BenchmarkFig18PopularDomains(b *testing.B) {
	st, _ := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Fig18(st) })
}

func BenchmarkFig19DomainShares(b *testing.B) {
	st, _ := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Fig19(st) })
}

func BenchmarkFig20DeviceFingerprint(b *testing.B) {
	st, _ := benchStudy(b)
	exhibit(b, func() *figures.Report { return figures.Fig20(st) })
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationGapThreshold sweeps the downtime definition (the paper
// chose 10 minutes) and shows how the Fig. 3 medians move.
func BenchmarkAblationGapThreshold(b *testing.B) {
	st, w := benchStudy(b)
	if _, dup := printed.LoadOrStore("ablation-gap", true); !dup {
		fmt.Println("== Ablation: heartbeat gap threshold (downtime definition) ==")
		for _, thr := range []time.Duration{2 * time.Minute, 5 * time.Minute, 10 * time.Minute, 20 * time.Minute, time.Hour} {
			win := w.Availability
			win.Threshold = thr
			rates := analysis.DowntimesPerDayByGroup(st, analysis.NewRoster(st), win)
			fmt.Printf("   thr=%-5s developed median=%.3f/day  developing median=%.3f/day\n",
				thr, stats.Median(rates[analysis.Developed]), stats.Median(rates[analysis.Developing]))
		}
		fmt.Println()
	}
	win := w.Availability
	win.Threshold = 10 * time.Minute
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.DowntimesPerDayByGroup(st, analysis.NewRoster(st), win)
	}
}

// BenchmarkAblationProbeTrain sweeps ShaperProbe's train length on a
// PowerBoost link: short trains never exit the token bucket and
// overestimate the sustained rate.
func BenchmarkAblationProbeTrain(b *testing.B) {
	cfgUp := linksim.Config{RateBps: 5e6, PeakBps: 40e6, BurstBytes: 300_000, BufferBytes: 1 << 22}
	if _, dup := printed.LoadOrStore("ablation-train", true); !dup {
		fmt.Println("== Ablation: ShaperProbe train length on a 5 Mbps link with a 300 KB PowerBoost bucket ==")
		for _, n := range []int{20, 60, 150, 400, 1000} {
			clk := clock.NewSim(time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC))
			dir := linksim.New(clk, nil, cfgUp)
			e := shaperprobe.ProbeSync(clk, dir, shaperprobe.Config{TrainLength: n})
			fmt.Printf("   train=%-5d estimate=%6.2f Mbps (true 5.00)  burstDetected=%v\n",
				n, e.SustainedBps/1e6, e.BurstDetected)
		}
		fmt.Println()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk := clock.NewSim(time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC))
		dir := linksim.New(clk, nil, cfgUp)
		_ = shaperprobe.ProbeSync(clk, dir, shaperprobe.Config{TrainLength: 150})
	}
}

// BenchmarkAblationFlowTimeout sweeps the capture flow-table idle
// timeout: shorter timeouts shrink the live table but split long-lived
// connections into multiple records.
func BenchmarkAblationFlowTimeout(b *testing.B) {
	gw := mac.MustParse("20:4e:7f:00:00:01")
	dev := mac.MustParse("a4:b1:97:00:00:0a")
	mkFrames := func() [][]byte {
		bld := packet.NewBuilder(dev, gw)
		var frames [][]byte
		for i := 0; i < 2000; i++ {
			frames = append(frames, bld.TCPv4(
				netip.MustParseAddr("192.168.1.10"), netip.MustParseAddr("203.0.113.80"),
				packet.TCP{SrcPort: uint16(5000 + i%20), DstPort: 443, Flags: packet.FlagACK}, 64,
				make([]byte, 400)))
		}
		return frames
	}
	frames := mkFrames()
	t0 := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	run := func(timeout time.Duration) (live, total int) {
		m := capture.New(capture.Config{
			LANPrefix:   netip.MustParsePrefix("192.168.1.0/24"),
			FlowTimeout: timeout,
		}, anonymize.New([]byte("k")))
		for i, fr := range frames {
			now := t0.Add(time.Duration(i) * 3 * time.Second) // 100 min of traffic
			m.Process(fr, capture.Upstream, now)
			if i%100 == 0 {
				m.ExpireFlows(now)
			}
		}
		return m.ActiveFlows(), len(m.Flows())
	}
	if _, dup := printed.LoadOrStore("ablation-timeout", true); !dup {
		fmt.Println("== Ablation: flow-table idle timeout (memory vs record granularity) ==")
		for _, to := range []time.Duration{30 * time.Second, 2 * time.Minute, 5 * time.Minute, 30 * time.Minute} {
			live, total := run(to)
			fmt.Printf("   timeout=%-5s live=%-4d records=%d\n", to, live, total)
		}
		fmt.Println()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(5 * time.Minute)
	}
}

// BenchmarkAblationWhitelistSize sweeps the anonymization whitelist size
// (the paper used the Alexa top 200): how much traffic volume stays
// attributable vs how much privacy the tail gets.
func BenchmarkAblationWhitelistSize(b *testing.B) {
	us, _ := geo.Lookup("US")
	root := rng.New(3)
	day0 := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	var flows []trafficgen.FlowSpec
	for h := 0; h < 10; h++ {
		gen := trafficgen.New(household.Generate(us, h, root))
		dt := gen.GenerateDay(day0, []household.Interval{{Start: day0, End: day0.Add(24 * time.Hour)}})
		flows = append(flows, dt.Flows...)
	}
	share := func(size int) float64 {
		var named, total float64
		for _, f := range flows {
			v := float64(f.UpBytes + f.DownBytes)
			total += v
			if r := domains.Rank(domains.Whitelisted(f.Domain)); r > 0 && r <= size {
				named += v
			}
		}
		return named / total
	}
	if _, dup := printed.LoadOrStore("ablation-whitelist", true); !dup {
		fmt.Println("== Ablation: whitelist size vs observable traffic share (paper: 200 → ≈65%) ==")
		for _, n := range []int{10, 25, 50, 100, 200} {
			fmt.Printf("   top-%-4d observable volume = %.0f%%\n", n, 100*share(n))
		}
		fmt.Println()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = share(200)
	}
}

// BenchmarkExtUsageByCountry runs the §7 future-work extension: a
// deployment where homes outside the US also consent to Traffic
// collection, compared by country group.
func BenchmarkExtUsageByCountry(b *testing.B) {
	var st *dataset.Store
	extOnce.Do(func() {
		w := world.Build(world.Config{Seed: 1, Scale: 0.3, GlobalTraffic: true,
			TrafficHomes: 8})
		if err := w.Run(); err != nil {
			panic(err)
		}
		extStore = w.Store
	})
	st = extStore
	r := figures.ExtUsageByCountry(st)
	if _, dup := printed.LoadOrStore(r.ID, true); !dup {
		fmt.Println(r.String())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = figures.ExtUsageByCountry(st)
	}
}

var (
	extOnce  sync.Once
	extStore *dataset.Store
)
