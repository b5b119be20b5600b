package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"natpeek/internal/heartbeat"
	"natpeek/internal/mac"
)

// File names used by Save/Load. One CSV per data set, mirroring the
// public release layout the paper describes (§3.2: "we have released the
// data collected from this study").
const (
	FileHeartbeats = "heartbeats.csv"
	FileUptime     = "uptime.csv"
	FileCapacity   = "capacity.csv"
	FileCounts     = "devices_counts.csv"
	FileSightings  = "devices_sightings.csv"
	FileWiFi       = "wifi.csv"
	FileFlows      = "traffic_flows.csv"
	FileThroughput = "traffic_throughput.csv"
	FileRoster     = "roster.csv"
)

const timeLayout = time.RFC3339Nano

// Column headers of the two files that are not row kinds (Kinds holds
// the rest).
var (
	rosterHeader     = []string{"router", "country"}
	heartbeatsHeader = []string{"router", "start", "interval_sec", "count"}
)

// Save writes every data set as CSV into dir (created if needed): the
// roster, the heartbeat log, and one file per kind holding its header
// and then its rows. The files touch disjoint data and are written
// concurrently, so on a fleet-size store the save is bounded by the
// largest file instead of the sum.
func (s *Store) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	files := []csvFile{
		{FileRoster, func(w *csv.Writer) error { return writeRosterCSV(w, s.RouterCountry) }},
		{FileHeartbeats, func(w *csv.Writer) error { return writeHeartbeatsCSV(w, s.Heartbeats) }},
	}
	for k := range Kinds {
		kind := &Kinds[k]
		files = append(files, csvFile{kind.File, func(w *csv.Writer) error {
			if err := w.Write(kind.Header); err != nil {
				return err
			}
			return kind.writeCSV(w, s)
		}})
	}
	errs := make([]error, len(files))
	var wg sync.WaitGroup
	for i, wr := range files {
		wg.Add(1)
		go func(i int, name string, fn func(w *csv.Writer) error) {
			defer wg.Done()
			errs[i] = writeFile(filepath.Join(dir, name), fn)
		}(i, wr.name, wr.fn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// csvFile names one output file and the function that writes it.
type csvFile struct {
	name string
	fn   func(w *csv.Writer) error
}

func writeFile(path string, fn func(w *csv.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	w := csv.NewWriter(f)
	if err := fn(w); err != nil {
		f.Close()
		return fmt.Errorf("dataset: write %s: %w", path, err)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return fmt.Errorf("dataset: flush %s: %w", path, err)
	}
	return f.Close()
}

func writeRosterCSV(w *csv.Writer, roster map[string]string) error {
	if err := w.Write(rosterHeader); err != nil {
		return err
	}
	ids := make([]string, 0, len(roster))
	for id := range roster {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := w.Write([]string{id, roster[id]}); err != nil {
			return err
		}
	}
	return nil
}

// writeHeartbeatsCSV persists the run-length encoding: expanding a
// fleet's multi-month minute cadence to individual rows would be
// gigabytes.
func writeHeartbeatsCSV(w *csv.Writer, log *heartbeat.Log) error {
	if err := w.Write(heartbeatsHeader); err != nil {
		return err
	}
	if log == nil {
		return nil
	}
	for _, id := range log.Routers() {
		for _, r := range log.Runs(id) {
			if err := w.Write([]string{id, r.Start.Format(timeLayout),
				strconv.FormatFloat(r.Interval.Seconds(), 'f', 3, 64),
				strconv.Itoa(r.Count)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// fields reads the columns of one CSV record, remembering the first that
// does not parse; readFile checks it once per record.
type fields struct {
	rec []string
	err error
}

func field[T any](f *fields, i int, parse func(string) (T, error)) T {
	v, err := parse(f.rec[i])
	if err != nil && f.err == nil {
		f.err = fmt.Errorf("field %d: %w", i+1, err)
	}
	return v
}

func (f *fields) time(i int) time.Time {
	return field(f, i, func(s string) (time.Time, error) { return time.Parse(timeLayout, s) })
}
func (f *fields) mac(i int) mac.Addr { return field(f, i, mac.Parse) }
func (f *fields) int(i int) int      { return field(f, i, strconv.Atoi) }
func (f *fields) int64(i int) int64 {
	return field(f, i, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) })
}
func (f *fields) float(i int) float64 {
	return field(f, i, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
}
func (f *fields) seconds(i int) time.Duration {
	return time.Duration(f.float(i) * float64(time.Second))
}

// Load reads a directory written by Save. A record with fewer columns
// than its file's schema, or a time, number or MAC that does not parse,
// fails the load with a "dataset: parse <file>: …" error.
func Load(dir string) (*Store, error) {
	s := NewStore()
	loaders := []struct {
		name string
		cols int // the fewest columns a record may have
		fn   func(f *fields)
	}{
		{FileRoster, 2, func(f *fields) { s.RouterCountry[f.rec[0]] = f.rec[1] }},
		{FileHeartbeats, 4, func(f *fields) {
			s.Heartbeats.RecordRun(f.rec[0], heartbeat.Run{Start: f.time(1), Interval: f.seconds(2), Count: f.int(3)})
		}},
		{FileUptime, 3, func(f *fields) {
			s.Uptime = append(s.Uptime, UptimeReport{f.rec[0], f.time(1), f.seconds(2)})
		}},
		{FileCapacity, 4, func(f *fields) {
			s.Capacity = append(s.Capacity, CapacityMeasure{f.rec[0], f.time(1), f.float(2), f.float(3)})
		}},
		{FileCounts, 5, func(f *fields) {
			s.Counts = append(s.Counts, DeviceCount{f.rec[0], f.time(1), f.int(2), f.int(3), f.int(4)})
		}},
		{FileSightings, 4, func(f *fields) {
			s.Sightings = append(s.Sightings, DeviceSighting{f.rec[0], f.time(1), f.mac(2), parseKind(f.rec[3])})
		}},
		{FileWiFi, 6, func(f *fields) {
			s.WiFi = append(s.WiFi, WiFiScan{f.rec[0], f.time(1), f.rec[2], f.int(3), f.int(4), f.int(5)})
		}},
		// A flows file from before the conns column has ten: one
		// connection per record.
		{FileFlows, 10, func(f *fields) {
			conns := int64(1)
			if len(f.rec) > 10 {
				conns = f.int64(10)
			}
			s.Flows = append(s.Flows, FlowRecord{f.rec[0], f.mac(1), f.rec[2], f.rec[3], f.time(4), f.time(5),
				f.int64(6), f.int64(7), f.int64(8), f.int64(9), conns})
		}},
		{FileThroughput, 5, func(f *fields) {
			s.Throughput = append(s.Throughput, ThroughputSample{f.rec[0], f.time(1), f.rec[2], f.float(3), f.int64(4)})
		}},
	}
	// The loaders touch disjoint Store fields (the heartbeat log is
	// internally synchronized), so the files parse concurrently.
	errs := make([]error, len(loaders))
	var wg sync.WaitGroup
	for i, ld := range loaders {
		wg.Add(1)
		go func(i int, name string, cols int, fn func(f *fields)) {
			defer wg.Done()
			errs[i] = readFile(filepath.Join(dir, name), cols, fn)
		}(i, ld.name, ld.cols, ld.fn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func readFile(path string, cols int, fn func(f *fields)) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	first := true
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("dataset: read %s: %w", path, err)
		}
		if first {
			first = false // skip header
			continue
		}
		row := fields{rec: rec}
		if len(rec) < cols {
			row.err = fmt.Errorf("record has %d columns, want %d", len(rec), cols)
		} else {
			fn(&row)
		}
		if row.err != nil {
			line, _ := r.FieldPos(0)
			return fmt.Errorf("dataset: parse %s: line %d: %w", path, line, row.err)
		}
	}
}

func parseKind(s string) ConnKind {
	switch s {
	case "wired":
		return Wired
	case "wifi2.4":
		return Wireless24
	default:
		return Wireless5
	}
}
