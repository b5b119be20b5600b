package world

import (
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/geo"
	"natpeek/internal/heartbeat"
	"natpeek/internal/mac"
)

// smallConfig shrinks the deployment and windows so tests stay fast.
func smallConfig() Config {
	return Config{
		Seed:           1,
		Scale:          0.15, // a handful of homes
		TrafficHomes:   3,
		HeartbeatsFrom: time.Date(2012, 10, 1, 0, 0, 0, 0, time.UTC),
		HeartbeatsTo:   time.Date(2012, 10, 15, 0, 0, 0, 0, time.UTC),
		UptimeFrom:     time.Date(2013, 3, 6, 0, 0, 0, 0, time.UTC),
		UptimeTo:       time.Date(2013, 3, 13, 0, 0, 0, 0, time.UTC),
		WiFiFrom:       time.Date(2012, 11, 1, 0, 0, 0, 0, time.UTC),
		WiFiTo:         time.Date(2012, 11, 4, 0, 0, 0, 0, time.UTC),
		CapacityFrom:   time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC),
		CapacityTo:     time.Date(2013, 4, 4, 0, 0, 0, 0, time.UTC),
		TrafficFrom:    time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC),
		TrafficTo:      time.Date(2013, 4, 4, 0, 0, 0, 0, time.UTC),
	}
}

func runSmall(t *testing.T) *World {
	t.Helper()
	w := Build(smallConfig())
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildFullScaleRosterMatchesTable1(t *testing.T) {
	w := Build(Config{Seed: 1})
	if len(w.Homes) != 126 {
		t.Fatalf("homes = %d, Table 1 says 126", len(w.Homes))
	}
	perCountry := map[string]int{}
	for _, h := range w.Homes {
		perCountry[h.Profile.Country.Code]++
	}
	if perCountry["US"] != 63 || perCountry["IN"] != 12 || perCountry["PK"] != 5 {
		t.Fatalf("roster %v", perCountry)
	}
	if len(w.ConsentingHomes()) != 25 {
		t.Fatalf("consenting = %d, want 25", len(w.ConsentingHomes()))
	}
	for _, h := range w.ConsentingHomes() {
		if h.Profile.Country.Code != "US" {
			t.Fatal("non-US consenting home")
		}
	}
}

func TestScaledRosterKeepsEveryCountry(t *testing.T) {
	w := Build(smallConfig())
	perCountry := map[string]int{}
	for _, h := range w.Homes {
		perCountry[h.Profile.Country.Code]++
	}
	if len(perCountry) != 19 {
		t.Fatalf("countries = %d, want all 19", len(perCountry))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := runSmall(t)
	b := runSmall(t)
	if len(a.Store.Flows) != len(b.Store.Flows) ||
		len(a.Store.Counts) != len(b.Store.Counts) ||
		len(a.Store.Capacity) != len(b.Store.Capacity) {
		t.Fatal("runs differ")
	}
	for i := range a.Store.Capacity {
		if a.Store.Capacity[i] != b.Store.Capacity[i] {
			t.Fatalf("capacity row %d differs", i)
		}
	}
}

func TestHeartbeatsCoverOnlineTime(t *testing.T) {
	w := runSmall(t)
	cfg := w.Cfg
	for _, h := range w.Homes[:5] {
		id := h.Profile.ID
		online := h.Profile.OnlineIntervals(cfg.HeartbeatsFrom, cfg.HeartbeatsTo)
		var onlineDur time.Duration
		for _, iv := range online {
			onlineDur += iv.Duration()
		}
		beats := w.Store.Heartbeats.Count(id)
		expect := int(onlineDur / heartbeat.Interval)
		if beats < expect-len(online) || beats > expect+len(online) {
			t.Fatalf("%s: %d beats for %v online", id, beats, onlineDur)
		}
	}
}

func TestUptimeReportsOnlyWhenPowered(t *testing.T) {
	w := runSmall(t)
	for _, r := range w.Store.Uptime {
		if r.Uptime < 0 {
			t.Fatalf("negative uptime %+v", r)
		}
		if r.ReportedAt.Before(w.Cfg.UptimeFrom) || !r.ReportedAt.Before(w.Cfg.UptimeTo) {
			t.Fatalf("report outside window %+v", r)
		}
	}
	if len(w.Store.Uptime) == 0 {
		t.Fatal("no uptime reports")
	}
}

func TestDeviceCensusRows(t *testing.T) {
	w := runSmall(t)
	if len(w.Store.Counts) == 0 || len(w.Store.Sightings) == 0 {
		t.Fatal("no census data")
	}
	ids := map[string]bool{}
	for _, c := range w.Store.Counts {
		ids[c.RouterID] = true
		if c.Wired < 0 || c.W24 < 0 || c.W5 < 0 {
			t.Fatalf("negative counts %+v", c)
		}
	}
	if len(ids) < len(w.Homes)/2 {
		t.Fatalf("census from only %d/%d homes", len(ids), len(w.Homes))
	}
	// Sightings must be anonymized but keep a registered OUI.
	for _, s := range w.Store.Sightings[:min(200, len(w.Store.Sightings))] {
		if s.Device.IsZero() {
			t.Fatal("zero MAC sighting")
		}
	}
}

func TestSightingsMatchCountTotals(t *testing.T) {
	w := runSmall(t)
	// Group sightings by (router, hour) and compare with the count row.
	type key struct {
		id string
		at time.Time
	}
	sightings := map[key]int{}
	for _, s := range w.Store.Sightings {
		sightings[key{s.RouterID, s.At}]++
	}
	checked := 0
	for _, c := range w.Store.Counts {
		if got := sightings[key{c.RouterID, c.At}]; got != c.Total() {
			t.Fatalf("%s@%v: %d sightings vs census total %d", c.RouterID, c.At, got, c.Total())
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestWiFiScansWithinWindow(t *testing.T) {
	w := runSmall(t)
	if len(w.Store.WiFi) == 0 {
		t.Fatal("no wifi scans")
	}
	for _, s := range w.Store.WiFi {
		if s.At.Before(w.Cfg.WiFiFrom) || !s.At.Before(w.Cfg.WiFiTo) {
			t.Fatalf("scan outside window %+v", s)
		}
		if s.Band != "2.4GHz" && s.Band != "5GHz" {
			t.Fatalf("bad band %+v", s)
		}
		if s.VisibleAPs < 0 {
			t.Fatal("negative APs")
		}
	}
}

func TestCapacityTracksProvisionedRates(t *testing.T) {
	w := runSmall(t)
	if len(w.Store.Capacity) == 0 {
		t.Fatal("no capacity rows")
	}
	byID := map[string][]dataset.CapacityMeasure{}
	for _, c := range w.Store.Capacity {
		byID[c.RouterID] = append(byID[c.RouterID], c)
	}
	homes := map[string]*Home{}
	for _, h := range w.Homes {
		homes[h.Profile.ID] = h
	}
	checked := 0
	for id, ms := range byID {
		h := homes[id]
		if h == nil {
			t.Fatalf("unknown router %s", id)
		}
		for _, m := range ms {
			if m.DownBps <= 0 {
				continue // probe during marginal connectivity
			}
			ratio := m.DownBps / h.Profile.DownBps
			if ratio < 0.7 || ratio > 1.3 {
				t.Fatalf("%s: measured %0.f vs provisioned %0.f", id, m.DownBps, h.Profile.DownBps)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no measurements validated")
	}
}

func TestTrafficOnlyFromConsentingHomes(t *testing.T) {
	w := runSmall(t)
	consent := map[string]bool{}
	for _, h := range w.ConsentingHomes() {
		consent[h.Profile.ID] = true
	}
	if len(w.Store.Flows) == 0 {
		t.Fatal("no flows")
	}
	for _, f := range w.Store.Flows {
		if !consent[f.RouterID] {
			t.Fatalf("flow from non-consenting home %s", f.RouterID)
		}
	}
	for _, s := range w.Store.Throughput {
		if !consent[s.RouterID] {
			t.Fatalf("throughput from non-consenting home %s", s.RouterID)
		}
	}
}

func TestFlowDomainsAnonymizedOutsideWhitelist(t *testing.T) {
	w := runSmall(t)
	sawWhitelisted, sawAnon := false, false
	for _, f := range w.Store.Flows {
		if f.Domain == "" {
			continue
		}
		if len(f.Domain) > 5 && f.Domain[:5] == "anon-" {
			sawAnon = true
		} else {
			sawWhitelisted = true
			if containsUnlisted(f.Domain) {
				t.Fatalf("unlisted domain leaked: %q", f.Domain)
			}
		}
	}
	if !sawWhitelisted || !sawAnon {
		t.Fatalf("domain mix wrong: whitelisted=%v anon=%v", sawWhitelisted, sawAnon)
	}
}

func containsUnlisted(d string) bool {
	return len(d) > 17 && d[len(d)-17:] == ".unlisted.example"
}

func TestDeviceMACsAnonymizedButOUIPreserved(t *testing.T) {
	w := runSmall(t)
	rawMACs := map[mac.Addr]bool{}
	for _, h := range w.Homes {
		for _, d := range h.Profile.Devices {
			rawMACs[d.HW] = true
		}
	}
	for _, f := range w.Store.Flows {
		if rawMACs[f.Device] {
			t.Fatal("raw device MAC leaked into Traffic data")
		}
	}
}

func TestDevelopedVsDevelopingGrouping(t *testing.T) {
	w := runSmall(t)
	var dev, dvg int
	for _, code := range w.Store.RouterCountry {
		if c, _ := geo.Lookup(code); c.Developed {
			dev++
		} else {
			dvg++
		}
	}
	if dev == 0 || dvg == 0 {
		t.Fatal("grouping empty")
	}
	if dev+dvg != len(w.Homes) {
		t.Fatal("groups do not partition the roster")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestGlobalTrafficExtension(t *testing.T) {
	cfg := smallConfig()
	cfg.GlobalTraffic = true
	w := Build(cfg)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	countries := map[string]bool{}
	for _, h := range w.ConsentingHomes() {
		countries[h.Profile.Country.Code] = true
	}
	if len(countries) < 10 {
		t.Fatalf("consent spans only %d countries with GlobalTraffic", len(countries))
	}
	// Traffic rows exist for at least one developing-country home.
	flowsByCountry := map[string]int{}
	for _, f := range w.Store.Flows {
		flowsByCountry[w.Store.RouterCountry[f.RouterID]]++
	}
	devFlows := 0
	for code, n := range flowsByCountry {
		c, _ := geo.Lookup(code)
		if !c.Developed {
			devFlows += n
		}
	}
	if devFlows == 0 {
		t.Fatal("no developing-country traffic under GlobalTraffic")
	}
}

func TestSaturatorsPinnedIntoConsentSubset(t *testing.T) {
	w := Build(Config{Seed: 1})
	sat := 0
	for _, h := range w.ConsentingHomes() {
		if h.Profile.UplinkSaturator {
			sat++
		}
	}
	if sat < 2 {
		t.Fatalf("only %d saturators among consenting homes, want ≥2 (Fig. 16 subjects)", sat)
	}
}
