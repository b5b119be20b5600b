package natpeek

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	study := NewStudy(StudyConfig{Seed: 11, Scale: 0.1, TrafficHomes: 2, Short: 7 * 24 * time.Hour})
	if err := study.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := study.WriteReports(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Figure 6", "Figure 19", "paper:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}

	dir := t.TempDir()
	if err := study.Save(dir); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStudy(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Reports()) != 21 {
		t.Fatal("reload broken")
	}
}

func smallStudy(t *testing.T) *Study {
	t.Helper()
	s := NewStudy(StudyConfig{Seed: 3, Scale: 0.1, TrafficHomes: 2, Short: 10 * 24 * time.Hour})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStudyRunProducesAllDatasets(t *testing.T) {
	s := smallStudy(t)
	if len(s.Store.Routers()) == 0 {
		t.Fatal("no routers")
	}
	if len(s.Store.Counts) == 0 || len(s.Store.WiFi) == 0 || len(s.Store.Capacity) == 0 {
		t.Fatal("datasets missing")
	}
	if len(s.Store.Flows) == 0 {
		t.Fatal("no traffic")
	}
}

func TestShortWindowsApplied(t *testing.T) {
	s := smallStudy(t)
	w := s.Windows.Availability
	if w.To.Sub(w.From) != 10*24*time.Hour {
		t.Fatalf("availability window %v", w.To.Sub(w.From))
	}
	for _, c := range s.Store.Counts {
		if c.At.After(time.Date(2013, 3, 16, 0, 0, 0, 0, time.UTC)) {
			t.Fatalf("census beyond short window: %v", c.At)
		}
	}
}

func TestReportsAndLookup(t *testing.T) {
	s := smallStudy(t)
	reports := s.Reports()
	if len(reports) != 21 {
		t.Fatalf("reports = %d", len(reports))
	}
	r, err := s.Report("Figure 3")
	if err != nil || r.ID != "Figure 3" {
		t.Fatalf("lookup: %v %v", r, err)
	}
	if _, err := s.Report("Figure 99"); err == nil {
		t.Fatal("unknown exhibit found")
	}
}

func TestWriteReports(t *testing.T) {
	s := smallStudy(t)
	var buf bytes.Buffer
	if err := s.WriteReports(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"Table 1", "Figure 3", "Figure 20"} {
		if !strings.Contains(out, id) {
			t.Fatalf("%s missing from output", id)
		}
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	s := smallStudy(t)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStudy(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Store.Routers()) != len(s.Store.Routers()) {
		t.Fatal("roster lost")
	}
	if len(re.Store.Flows) != len(s.Store.Flows) {
		t.Fatal("flows lost")
	}
	// Reports still work on the reloaded store (windows default to the
	// paper's, so availability numbers differ — but structure holds).
	if got := len(re.Reports()); got != 21 {
		t.Fatalf("reloaded reports = %d", got)
	}
}

func TestStudyDeterminism(t *testing.T) {
	a := smallStudy(t)
	b := smallStudy(t)
	if len(a.Store.Flows) != len(b.Store.Flows) {
		t.Fatal("non-deterministic")
	}
	ra := a.Reports()
	rb := b.Reports()
	for i := range ra {
		if ra[i].String() != rb[i].String() {
			t.Fatalf("report %s differs between identical runs", ra[i].ID)
		}
	}
}
