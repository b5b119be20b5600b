// Package dataset defines the six data sets of Table 2 — Heartbeats,
// Uptime, Capacity, Devices, WiFi, and Traffic — with their collection
// windows, row schemas, and CSV persistence. Everything the analysis and
// figure code consumes comes from this package, so the boundary between
// "what the platform collected" and "what the paper computed" is explicit.
//
// Devices is two row slices (counts and sightings) and Traffic two (flows
// and throughput), so a Store has seven row kinds; Kinds (kinds.go)
// enumerates them once and every layer that visits "each data set" loops
// over it. Adding a data set:
//
//  1. a row type, a slice field on Store and a RowCounts field;
//  2. one entry in Kinds;
//  3. an NPS1 block schema and its rowBlocks entry in segment/blocks.go;
//  4. a wire.Payload case (and a Load parser if it is saved as CSV);
//
// and nothing else: TestKindTableCoversStore fails until 2 is done.
package dataset

import (
	"sort"
	"time"

	"natpeek/internal/heartbeat"
	"natpeek/internal/mac"
)

// Collection windows from Table 2.
var (
	// HeartbeatsFrom/To: October 1, 2012 – April 15, 2013.
	HeartbeatsFrom = time.Date(2012, 10, 1, 0, 0, 0, 0, time.UTC)
	HeartbeatsTo   = time.Date(2013, 4, 15, 0, 0, 0, 0, time.UTC)
	// CapacityFrom/To: April 1 – April 15, 2013.
	CapacityFrom = time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	CapacityTo   = time.Date(2013, 4, 15, 0, 0, 0, 0, time.UTC)
	// UptimeFrom/To and DevicesFrom/To: March 6 – April 15, 2013.
	UptimeFrom  = time.Date(2013, 3, 6, 0, 0, 0, 0, time.UTC)
	UptimeTo    = time.Date(2013, 4, 15, 0, 0, 0, 0, time.UTC)
	DevicesFrom = UptimeFrom
	DevicesTo   = UptimeTo
	// WiFiFrom/To: November 1 – November 15, 2012.
	WiFiFrom = time.Date(2012, 11, 1, 0, 0, 0, 0, time.UTC)
	WiFiTo   = time.Date(2012, 11, 15, 0, 0, 0, 0, time.UTC)
	// TrafficFrom/To: April 1 – April 15, 2013.
	TrafficFrom = CapacityFrom
	TrafficTo   = CapacityTo
)

// UptimeReport is one row of the Uptime data set: "each router sends its
// uptime every twelve hours" (§3.2.2). It distinguishes powered-off
// routers from offline-but-running ones.
type UptimeReport struct {
	RouterID   string
	ReportedAt time.Time
	// Uptime is the router's time since boot at the report.
	Uptime time.Duration
}

// CapacityMeasure is one ShaperProbe run (every twelve hours).
type CapacityMeasure struct {
	RouterID   string
	MeasuredAt time.Time
	UpBps      float64
	DownBps    float64
}

// ConnKind is how a device attaches to the gateway.
type ConnKind int

// Attachment kinds.
const (
	Wired ConnKind = iota
	Wireless24
	Wireless5
)

func (k ConnKind) String() string {
	switch k {
	case Wired:
		return "wired"
	case Wireless24:
		return "wifi2.4"
	default:
		return "wifi5"
	}
}

// DeviceCount is one row of the hourly Devices census: "most routers
// count the number of devices connected to their wired Ethernet ports and
// the number of associated clients on each wireless frequency".
type DeviceCount struct {
	RouterID string
	At       time.Time
	Wired    int
	W24      int
	W5       int
}

// Total returns all connected devices at the census instant.
func (d DeviceCount) Total() int { return d.Wired + d.W24 + d.W5 }

// DeviceSighting is one (device, hour) observation with the anonymized
// MAC, recorded alongside the counts. Per-device rows are what Table 5's
// always-connected analysis and Fig. 7/10's unique-device counts need.
type DeviceSighting struct {
	RouterID string
	At       time.Time
	Device   mac.Addr // anonymized (lower 24 bits hashed)
	Kind     ConnKind
}

// WiFiScan is one row of the WiFi data set: a same-channel scan every ten
// minutes.
type WiFiScan struct {
	RouterID   string
	At         time.Time
	Band       string // "2.4GHz" or "5GHz"
	Channel    int
	VisibleAPs int
	Clients    int
}

// FlowRecord is one row of the Traffic data set's flow statistics.
type FlowRecord struct {
	RouterID  string
	Device    mac.Addr // anonymized
	Domain    string   // whitelisted name, "anon-…", or ""
	Proto     string   // "tcp"/"udp"
	First     time.Time
	Last      time.Time
	UpBytes   int64
	DownBytes int64
	UpPkts    int64
	DownPkts  int64
	// Conns is the number of TCP/UDP connections this record covers. The
	// live capture path emits one record per 5-tuple (Conns = 1); the
	// fleet simulator aggregates a device-domain-day bundle into one row.
	Conns int64
}

// Bytes returns the flow's total volume.
func (f FlowRecord) Bytes() int64 { return f.UpBytes + f.DownBytes }

// ThroughputSample is one row of the Traffic data set's packet
// statistics, aggregated the way §6.2 uses them: "computing the maximum
// per-second throughput every minute".
type ThroughputSample struct {
	RouterID string
	Minute   time.Time
	Dir      string // "up"/"down"
	// PeakBps is the maximum one-second throughput inside the minute, in
	// bits per second.
	PeakBps float64
	// TotalBytes is the minute's volume.
	TotalBytes int64
}

// Store bundles all six data sets for a study.
type Store struct {
	Heartbeats *heartbeat.Log
	Uptime     []UptimeReport
	Capacity   []CapacityMeasure
	Counts     []DeviceCount
	Sightings  []DeviceSighting
	WiFi       []WiFiScan
	Flows      []FlowRecord
	Throughput []ThroughputSample

	// RouterCountry maps router IDs to ISO country codes (deployment
	// metadata, the join key for all per-country analyses).
	RouterCountry map[string]string
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		Heartbeats:    heartbeat.NewLog(),
		RouterCountry: make(map[string]string),
	}
}

// Routers returns the router IDs known to the store's metadata, i.e. the
// deployment roster.
func (s *Store) Routers() []string {
	out := make([]string, 0, len(s.RouterCountry))
	for id := range s.RouterCountry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// RoutersIn returns the router IDs deployed in the given country group.
func (s *Store) RoutersIn(developed bool, isDeveloped func(code string) bool) []string {
	var out []string
	for id, code := range s.RouterCountry {
		if isDeveloped(code) == developed {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
