package dataset

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"natpeek/internal/mac"
)

var t0 = time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)

func sampleStore() *Store {
	s := NewStore()
	s.RouterCountry["r-us-1"] = "US"
	s.RouterCountry["r-in-1"] = "IN"
	s.Heartbeats.Record("r-us-1", t0)
	s.Heartbeats.Record("r-us-1", t0.Add(time.Minute))
	s.Uptime = append(s.Uptime, UptimeReport{"r-us-1", t0, 36 * time.Hour})
	s.Capacity = append(s.Capacity, CapacityMeasure{"r-us-1", t0, 1e6, 16e6})
	s.Counts = append(s.Counts, DeviceCount{"r-us-1", t0, 1, 4, 2})
	s.Sightings = append(s.Sightings, DeviceSighting{"r-us-1", t0, mac.MustParse("a4:b1:97:01:02:03"), Wireless24})
	s.WiFi = append(s.WiFi, WiFiScan{"r-us-1", t0, "2.4GHz", 11, 17, 3})
	s.Flows = append(s.Flows, FlowRecord{
		RouterID: "r-us-1", Device: mac.MustParse("a4:b1:97:01:02:03"),
		Domain: "netflix.com", Proto: "tcp", First: t0, Last: t0.Add(time.Hour),
		UpBytes: 1000, DownBytes: 900000, UpPkts: 10, DownPkts: 700,
	})
	s.Throughput = append(s.Throughput, ThroughputSample{"r-us-1", t0, "down", 12e6, 90000000})
	return s
}

func TestWindowsMatchTable2(t *testing.T) {
	if HeartbeatsFrom.Month() != time.October || HeartbeatsTo.Month() != time.April {
		t.Fatal("heartbeats window wrong")
	}
	if WiFiFrom.Month() != time.November || WiFiTo.Sub(WiFiFrom) != 14*24*time.Hour {
		t.Fatal("wifi window wrong")
	}
	if TrafficTo.Sub(TrafficFrom) != 14*24*time.Hour {
		t.Fatal("traffic window wrong")
	}
	if !DevicesFrom.Equal(UptimeFrom) {
		t.Fatal("devices/uptime windows should coincide")
	}
}

func TestDeviceCountTotal(t *testing.T) {
	c := DeviceCount{Wired: 1, W24: 4, W5: 2}
	if c.Total() != 7 {
		t.Fatalf("total = %d", c.Total())
	}
}

func TestFlowBytes(t *testing.T) {
	f := FlowRecord{UpBytes: 3, DownBytes: 4}
	if f.Bytes() != 7 {
		t.Fatal("Bytes wrong")
	}
}

func TestConnKindStrings(t *testing.T) {
	if Wired.String() != "wired" || Wireless24.String() != "wifi2.4" || Wireless5.String() != "wifi5" {
		t.Fatal("kind strings wrong")
	}
	for _, k := range []ConnKind{Wired, Wireless24, Wireless5} {
		if parseKind(k.String()) != k {
			t.Fatalf("kind %v does not round trip", k)
		}
	}
}

func TestRoutersSorted(t *testing.T) {
	s := sampleStore()
	ids := s.Routers()
	if len(ids) != 2 || ids[0] != "r-in-1" || ids[1] != "r-us-1" {
		t.Fatalf("routers = %v", ids)
	}
}

func TestRoutersInGroup(t *testing.T) {
	s := sampleStore()
	isDev := func(code string) bool { return code == "US" }
	if got := s.RoutersIn(true, isDev); len(got) != 1 || got[0] != "r-us-1" {
		t.Fatalf("developed = %v", got)
	}
	if got := s.RoutersIn(false, isDev); len(got) != 1 || got[0] != "r-in-1" {
		t.Fatalf("developing = %v", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	orig := sampleStore()
	if err := orig.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.RouterCountry) != 2 || got.RouterCountry["r-us-1"] != "US" {
		t.Fatalf("roster = %v", got.RouterCountry)
	}
	if got.Heartbeats.Count("r-us-1") != 2 {
		t.Fatalf("heartbeats = %d", got.Heartbeats.Count("r-us-1"))
	}
	if len(got.Uptime) != 1 || got.Uptime[0].Uptime != 36*time.Hour {
		t.Fatalf("uptime = %+v", got.Uptime)
	}
	if len(got.Capacity) != 1 || got.Capacity[0].DownBps != 16e6 {
		t.Fatalf("capacity = %+v", got.Capacity)
	}
	if len(got.Counts) != 1 || got.Counts[0].Total() != 7 {
		t.Fatalf("counts = %+v", got.Counts)
	}
	if len(got.Sightings) != 1 || got.Sightings[0].Kind != Wireless24 {
		t.Fatalf("sightings = %+v", got.Sightings)
	}
	if len(got.WiFi) != 1 || got.WiFi[0].VisibleAPs != 17 {
		t.Fatalf("wifi = %+v", got.WiFi)
	}
	if len(got.Flows) != 1 {
		t.Fatalf("flows = %d", len(got.Flows))
	}
	f := got.Flows[0]
	if f.Domain != "netflix.com" || f.DownBytes != 900000 || !f.Last.Equal(t0.Add(time.Hour)) {
		t.Fatalf("flow = %+v", f)
	}
	if len(got.Throughput) != 1 || got.Throughput[0].PeakBps != 12e6 {
		t.Fatalf("throughput = %+v", got.Throughput)
	}
}

func TestLoadMissingDirErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing dir loaded")
	}
}

func TestSaveEmptyStoreAndReload(t *testing.T) {
	dir := t.TempDir()
	if err := NewStore().Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Routers()) != 0 || len(got.Flows) != 0 {
		t.Fatal("empty store not empty after reload")
	}
}

// TestLoadRejectsShortAndMalformedRows damages one file of a saved store
// at a time: a record short of its schema (which used to index past the
// record inside a loader goroutine and take the process down) and a
// number that does not parse (which used to load as 0) must both fail
// the load with an error naming the file. The one short form Load
// accepts is a flows record without the conns column.
func TestLoadRejectsShortAndMalformedRows(t *testing.T) {
	at := t0.Format(timeLayout)
	dev := "a4:b1:97:01:02:03"
	cases := []struct{ file, short, malformed string }{
		{FileRoster, "r1", ""},
		{FileHeartbeats, "r1," + at + ",60.000", "r1," + at + ",60.000,two"},
		{FileUptime, "r1," + at, "r1," + at + ",long"},
		{FileCapacity, "r1," + at + ",1000000", "r1," + at + ",1000000,fast"},
		{FileCounts, "r1," + at + ",1,4", "r1," + at + ",1,4,x"},
		{FileSightings, "r1," + at + "," + dev, "r1," + at + ",not-a-mac,wired"},
		{FileWiFi, "r1," + at + ",2.4GHz,11,17", "r1," + at + ",2.4GHz,eleven,17,3"},
		{FileFlows, "r1," + dev + ",netflix.com,tcp," + at + "," + at + ",1,2,3",
			"r1," + dev + ",netflix.com,tcp," + at + "," + at + ",1,2,3,4,many"},
		{FileThroughput, "r1," + at + ",down,12000000", "r1," + at + ",down,12000000,9e7x"},
	}
	for _, tc := range cases {
		for what, row := range map[string]string{"short": tc.short, "malformed": tc.malformed} {
			if row == "" {
				continue
			}
			dir := t.TempDir()
			if err := sampleStore().Save(dir); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(filepath.Join(dir, tc.file), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(f, row)
			f.Close()
			_, err = Load(dir)
			if err == nil || !strings.Contains(err.Error(), "dataset: parse") || !strings.Contains(err.Error(), tc.file) {
				t.Errorf("%s with a %s row %q: err = %v, want a dataset: parse error naming the file", tc.file, what, row, err)
			}
		}
	}

	dir := t.TempDir()
	if err := sampleStore().Save(dir); err != nil {
		t.Fatal(err)
	}
	tenCols := "router,device,domain,proto,first,last,up_bytes,down_bytes,up_pkts,down_pkts\n" +
		"r1," + dev + ",netflix.com,tcp," + at + "," + at + ",1,2,3,4\n"
	if err := os.WriteFile(filepath.Join(dir, FileFlows), []byte(tenCols), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatalf("ten-column flows file: %v", err)
	}
	if len(got.Flows) != 1 || got.Flows[0].Conns != 1 || got.Flows[0].DownPkts != 4 {
		t.Fatalf("ten-column flow loaded as %+v, want conns = 1", got.Flows)
	}
}
