package figures

import (
	"fmt"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/domains"
	"natpeek/internal/geo"
	"natpeek/internal/mac"
	"natpeek/internal/rng"
)

// loadgenMix builds uploads in loadgen.DefaultMix proportions from a
// fleet of routers, the shape natbench's figures-live writes: eight
// flows per flow upload, namedShare of them to a Zipf-ranked whitelisted
// domain and the rest to a per-flow anonymised token no aggregate can
// absorb. Upload u of the run comes from router (first+u) mod routers;
// its rows are appended to st.
func loadgenMix(st *dataset.Store, s *rng.Stream, first, uploads, routers int, namedShare float64) {
	named := domains.All()
	zipf := rng.NewZipf(len(named), 1.1)
	codes := geo.All()
	start := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	for u := first; u < first+uploads; u++ {
		router := u % routers
		id := fmt.Sprintf("load-%05d", router)
		st.RouterCountry[id] = codes[router%len(codes)].Code
		at := start.Add(time.Duration(u/routers) * time.Hour).Add(time.Duration(u%60) * time.Minute)
		switch s.WeightedChoice([]float64{1, 0.5, 1, 1, 3, 2}) {
		case 0:
			st.Uptime = append(st.Uptime, dataset.UptimeReport{RouterID: id, ReportedAt: at,
				Uptime: time.Duration(s.Intn(14*24*3600)) * time.Second})
		case 1:
			st.Capacity = append(st.Capacity, dataset.CapacityMeasure{RouterID: id, MeasuredAt: at,
				UpBps: s.Range(4e5, 1e7), DownBps: s.Range(1e6, 1e8)})
		case 2:
			st.Counts = append(st.Counts, dataset.DeviceCount{RouterID: id, At: at,
				Wired: s.Intn(5), W24: s.Intn(6), W5: s.Intn(4)})
			for j := 0; j < 1+s.Intn(4); j++ {
				st.Sightings = append(st.Sightings, dataset.DeviceSighting{RouterID: id, At: at,
					Device: mac.FromOUI(0x001CB3, uint32(router*1000+j)), Kind: dataset.ConnKind(s.Intn(3))})
			}
		case 3:
			for _, band := range []string{"2.4GHz", "5GHz"} {
				st.WiFi = append(st.WiFi, dataset.WiFiScan{RouterID: id, At: at, Band: band,
					Channel: 1 + s.Intn(11), VisibleAPs: s.Intn(25), Clients: s.Intn(6)})
			}
		case 4:
			for j := 0; j < 8; j++ {
				domain := named[zipf.Sample(s)].Name
				if !s.Bool(namedShare) {
					domain = fmt.Sprintf("anon-%016x", s.Uint64())
				}
				st.Flows = append(st.Flows, dataset.FlowRecord{RouterID: id,
					Device: mac.FromOUI(0x001CB3, uint32(router*1000+j)),
					Domain: domain, Proto: "tcp",
					First: at, Last: at.Add(time.Duration(1+s.Intn(300)) * time.Second),
					UpBytes: s.Int63() % 1e6, DownBytes: s.Int63() % 1e8,
					UpPkts: int64(s.Intn(1e4)), DownPkts: int64(s.Intn(1e5)),
					Conns: 1 + int64(s.Intn(9))})
			}
		default:
			for j := 0; j < 6; j++ {
				st.Throughput = append(st.Throughput, dataset.ThroughputSample{RouterID: id,
					Minute: at.Add(time.Duration(j) * time.Minute), Dir: []string{"up", "down"}[j%2],
					PeakBps: s.Range(1e4, 1e8), TotalBytes: s.Int63() % 1e8})
			}
		}
	}
}
