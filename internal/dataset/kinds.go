// The seven row kinds of a Store, enumerated once. Everything that has
// to visit "every data set" — Sharded's merge and extract, the CSV
// writer, the segment store's windows, counts and time ranges, the
// cluster's transfer accounting — loops over Kinds and reaches the rows
// through a kind's type-erased slice operations, which rows[T]
// implements once for all seven. What stays per kind lives with the
// format it belongs to: CSV parsing in Load, the NPS1 column schemas in
// segment/blocks.go, wire.Payload. The package comment lists what adding
// a data set takes.
package dataset

import (
	"encoding/csv"
	"strconv"
	"time"
)

// Kind is one row slice of Store: its CSV identity, its RowCounts field,
// and the slice operations every store layer is built from.
type Kind struct {
	// File is the kind's CSV file name, Header that file's first row.
	File   string
	Header []string
	// Count addresses the kind's field of a RowCounts.
	Count func(*RowCounts) *int
	rowOps
}

// rowOps is a kind's slice of a Store with the row type erased.
type rowOps interface {
	// Len is the number of rows st holds.
	Len(st *Store) int
	// Append appends src's rows [off, off+n) to dst.
	Append(dst, src *Store, off, n int)
	// Split appends each of src's rows [off, off+n) to hit when match
	// selects its router and to rest when not, order kept on both sides.
	Split(hit, rest, src *Store, off, n int, match func(router string) bool)
	// Alloc gives st n zero rows with spare capacity behind them (nil
	// when both are zero).
	Alloc(st *Store, n, spare int)
	// Window points dst at src's rows [lo, hi), capacity clipped at hi.
	Window(dst, src *Store, lo, hi int)
	// Resize gives st n rows in the room its slice already has, growing
	// it only when that is too small. Rows it keeps hold what they held:
	// the caller overwrites every one.
	Resize(st *Store, n int)
	// Times calls obs with every time column of every row.
	Times(st *Store, obs func(time.Time))

	writeCSV(w *csv.Writer, st *Store) error
}

// rows implements rowOps for the Store field of element type T.
type rows[T any] struct {
	field  func(*Store) *[]T
	router func(*T) string
	csv    func(*T) []string
	times  []func(*T) time.Time
}

func (k *rows[T]) Len(st *Store) int { return len(*k.field(st)) }

func (k *rows[T]) Append(dst, src *Store, off, n int) {
	d := k.field(dst)
	*d = append(*d, (*k.field(src))[off:off+n]...)
}

func (k *rows[T]) Split(hit, rest, src *Store, off, n int, match func(string) bool) {
	h, r := k.field(hit), k.field(rest)
	s := (*k.field(src))[off : off+n]
	for i := range s {
		if match(k.router(&s[i])) {
			*h = append(*h, s[i])
		} else {
			*r = append(*r, s[i])
		}
	}
}

func (k *rows[T]) Alloc(st *Store, n, spare int) {
	*k.field(st) = nil
	if n+spare > 0 {
		*k.field(st) = make([]T, n, n+spare)
	}
}

func (k *rows[T]) Window(dst, src *Store, lo, hi int) {
	*k.field(dst) = (*k.field(src))[lo:hi:hi]
}

func (k *rows[T]) Resize(st *Store, n int) {
	if f := k.field(st); cap(*f) >= n {
		*f = (*f)[:n]
	} else {
		*f = make([]T, n)
	}
}

func (k *rows[T]) Times(st *Store, obs func(time.Time)) {
	s := *k.field(st)
	for i := range s {
		for _, at := range k.times {
			obs(at(&s[i]))
		}
	}
}

func (k *rows[T]) writeCSV(w *csv.Writer, st *Store) error {
	s := *k.field(st)
	for i := range s {
		if err := w.Write(k.csv(&s[i])); err != nil {
			return err
		}
	}
	return nil
}

// NumKinds is the number of row kinds.
const NumKinds = len(Kinds)

// Kinds is the table. Its order is the order every layer visits the
// kinds in, and the order segment.rowBlocks pairs block schemas with.
var Kinds = [...]Kind{
	{FileUptime, []string{"router", "reported_at", "uptime_sec"},
		func(rc *RowCounts) *int { return &rc.Uptime },
		&rows[UptimeReport]{
			func(s *Store) *[]UptimeReport { return &s.Uptime },
			func(r *UptimeReport) string { return r.RouterID },
			func(r *UptimeReport) []string {
				return []string{r.RouterID, fmtTime(r.ReportedAt), fmtFloat(r.Uptime.Seconds())}
			},
			[]func(*UptimeReport) time.Time{func(r *UptimeReport) time.Time { return r.ReportedAt }},
		}},
	{FileCapacity, []string{"router", "measured_at", "up_bps", "down_bps"},
		func(rc *RowCounts) *int { return &rc.Capacity },
		&rows[CapacityMeasure]{
			func(s *Store) *[]CapacityMeasure { return &s.Capacity },
			func(r *CapacityMeasure) string { return r.RouterID },
			func(r *CapacityMeasure) []string {
				return []string{r.RouterID, fmtTime(r.MeasuredAt), fmtFloat(r.UpBps), fmtFloat(r.DownBps)}
			},
			[]func(*CapacityMeasure) time.Time{func(r *CapacityMeasure) time.Time { return r.MeasuredAt }},
		}},
	{FileCounts, []string{"router", "at", "wired", "w24", "w5"},
		func(rc *RowCounts) *int { return &rc.Counts },
		&rows[DeviceCount]{
			func(s *Store) *[]DeviceCount { return &s.Counts },
			func(r *DeviceCount) string { return r.RouterID },
			func(r *DeviceCount) []string {
				return []string{r.RouterID, fmtTime(r.At), strconv.Itoa(r.Wired), strconv.Itoa(r.W24), strconv.Itoa(r.W5)}
			},
			[]func(*DeviceCount) time.Time{func(r *DeviceCount) time.Time { return r.At }},
		}},
	{FileSightings, []string{"router", "at", "device", "kind"},
		func(rc *RowCounts) *int { return &rc.Sightings },
		&rows[DeviceSighting]{
			func(s *Store) *[]DeviceSighting { return &s.Sightings },
			func(r *DeviceSighting) string { return r.RouterID },
			func(r *DeviceSighting) []string {
				return []string{r.RouterID, fmtTime(r.At), r.Device.String(), r.Kind.String()}
			},
			[]func(*DeviceSighting) time.Time{func(r *DeviceSighting) time.Time { return r.At }},
		}},
	{FileWiFi, []string{"router", "at", "band", "channel", "visible_aps", "clients"},
		func(rc *RowCounts) *int { return &rc.WiFi },
		&rows[WiFiScan]{
			func(s *Store) *[]WiFiScan { return &s.WiFi },
			func(r *WiFiScan) string { return r.RouterID },
			func(r *WiFiScan) []string {
				return []string{r.RouterID, fmtTime(r.At), r.Band,
					strconv.Itoa(r.Channel), strconv.Itoa(r.VisibleAPs), strconv.Itoa(r.Clients)}
			},
			[]func(*WiFiScan) time.Time{func(r *WiFiScan) time.Time { return r.At }},
		}},
	{FileFlows, []string{"router", "device", "domain", "proto", "first", "last",
		"up_bytes", "down_bytes", "up_pkts", "down_pkts", "conns"},
		func(rc *RowCounts) *int { return &rc.Flows },
		&rows[FlowRecord]{
			func(s *Store) *[]FlowRecord { return &s.Flows },
			func(r *FlowRecord) string { return r.RouterID },
			func(r *FlowRecord) []string {
				return []string{r.RouterID, r.Device.String(), r.Domain, r.Proto, fmtTime(r.First), fmtTime(r.Last),
					fmtInt(r.UpBytes), fmtInt(r.DownBytes), fmtInt(r.UpPkts), fmtInt(r.DownPkts), fmtInt(r.Conns)}
			},
			[]func(*FlowRecord) time.Time{
				func(r *FlowRecord) time.Time { return r.First },
				func(r *FlowRecord) time.Time { return r.Last },
			},
		}},
	{FileThroughput, []string{"router", "minute", "dir", "peak_bps", "total_bytes"},
		func(rc *RowCounts) *int { return &rc.Throughput },
		&rows[ThroughputSample]{
			func(s *Store) *[]ThroughputSample { return &s.Throughput },
			func(r *ThroughputSample) string { return r.RouterID },
			func(r *ThroughputSample) []string {
				return []string{r.RouterID, fmtTime(r.Minute), r.Dir, fmtFloat(r.PeakBps), fmtInt(r.TotalBytes)}
			},
			[]func(*ThroughputSample) time.Time{func(r *ThroughputSample) time.Time { return r.Minute }},
		}},
}

func fmtTime(t time.Time) string { return t.Format(timeLayout) }
func fmtFloat(f float64) string  { return strconv.FormatFloat(f, 'f', 0, 64) }
func fmtInt(n int64) string      { return strconv.FormatInt(n, 10) }

// RowCounts is a per-kind row tally plus the roster size: what a store
// holds, a segment footer promises, or a window must make room for.
type RowCounts struct {
	Routers    int
	Uptime     int
	Capacity   int
	Counts     int
	Sightings  int
	WiFi       int
	Flows      int
	Throughput int
}

// CountRows tallies a plain Store.
func CountRows(st *Store) RowCounts {
	rc := RowCounts{Routers: len(st.RouterCountry)}
	for _, k := range Kinds {
		*k.Count(&rc) = k.Len(st)
	}
	return rc
}

// Add adds o's per-kind counts to rc. Routers is left alone: rosters
// overlap, so their sizes do not sum.
func (rc *RowCounts) Add(o RowCounts) {
	for _, k := range Kinds {
		*k.Count(rc) += *k.Count(&o)
	}
}

// Total is the number of rows across every kind.
func (rc RowCounts) Total() int {
	n := 0
	for _, k := range Kinds {
		n += *k.Count(&rc)
	}
	return n
}
