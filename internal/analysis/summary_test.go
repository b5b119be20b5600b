package analysis

import (
	"maps"
	"slices"
	"testing"
	"time"

	"natpeek/internal/dataset"
)

// TestExtendedPagesCarryWhatHolds: a page Extended from the last one
// takes that one's roster while no router has registered or changed
// country, in the base or in the tail, and its home summaries while the
// home's versions are the same; whatever changed in between shows on it.
func TestExtendedPagesCarryWhatHolds(t *testing.T) {
	at := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	rows := func(countries map[string]string, ids ...string) *dataset.Store {
		st := dataset.NewStore()
		maps.Copy(st.RouterCountry, countries)
		for _, id := range ids {
			st.Flows = append(st.Flows, dataset.FlowRecord{RouterID: id, Device: dev(1), Domain: "google.com", DownBytes: 1e6, Conns: 1})
			st.Capacity = append(st.Capacity, dataset.CapacityMeasure{RouterID: id, MeasuredAt: at, UpBps: 1e6, DownBps: 1e7})
			st.Throughput = append(st.Throughput, dataset.ThroughputSample{RouterID: id, Minute: at, Dir: "down", PeakBps: 2e6})
		}
		return st
	}
	p := NewPartial()
	p.Fold(rows(map[string]string{"a": "US", "b": "US"}, "a", "b"))
	page := func(sn *Snapshot, want map[string]string, summarized int) {
		t.Helper()
		sn.Capture(p)
		if got := sn.Store(nil).RouterCountry; !maps.Equal(got, want) {
			t.Fatalf("the page's roster is %v, want %v", got, want)
		}
		wantRo := NewRoster(&dataset.Store{RouterCountry: want})
		for _, g := range []Group{Developed, Developing} {
			if got, w := sn.Roster().InGroup(g), wantRo.InGroup(g); !slices.Equal(got, w) {
				t.Fatalf("the page's %s routers are %v, want %v", g, got, w)
			}
		}
		if n := sn.Rollup().Summarized(); n != summarized {
			t.Fatalf("the page computed %d home summaries, want %d", n, summarized)
		}
	}
	sn := NewSnapshot(rows(nil, "a"))
	page(sn, map[string]string{"a": "US", "b": "US"}, 2)

	// No row since: the roster and every summary are the last page's.
	next := sn.Extend(dataset.NewStore())
	page(next, map[string]string{"a": "US", "b": "US"}, 0)
	if next.Roster() != sn.Roster() {
		t.Error("a page with nothing new built its roster index again")
	}
	// Registrations folded into the base: b moves, c joins.
	p.Fold(rows(map[string]string{"b": "PK", "c": "IN"}))
	sn, next = next, next.Extend(rows(nil, "b"))
	page(next, map[string]string{"a": "US", "b": "PK", "c": "IN"}, 1)
	// A registration in the tail, and one the page already holds.
	sn, next = next, next.Extend(rows(map[string]string{"d": "BR"}))
	page(next, map[string]string{"a": "US", "b": "PK", "c": "IN", "d": "BR"}, 0)
	sn, next = next, next.Extend(rows(map[string]string{"a": "US"}, "a"))
	page(next, map[string]string{"a": "US", "b": "PK", "c": "IN", "d": "BR"}, 1)
	if next.Roster() != sn.Roster() {
		t.Error("a page whose rows registered no one new built its roster index again")
	}
}
