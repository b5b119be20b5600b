package analysis

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/rng"
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

// TestPageOfNoNewRowsShares: a page Extended by no rows has no summary
// that went or came, and takes the last page's usage aggregates as they
// are — the same samples, Fig. 16 rows, Fig. 18 counts, first-flow order
// and best devices — without making any of them again.
func TestPageOfNoNewRowsShares(t *testing.T) {
	s := rng.New(45).Child("usage")
	st := keptMix(s, 40, 3_000)
	for i := 0; i < 600; i++ {
		st.Flows = append(st.Flows, dataset.FlowRecord{RouterID: fmt.Sprintf("mix-%03d", s.Intn(30)),
			Device: dev(uint32(s.Intn(60))), Domain: fmt.Sprintf("d%d.com", s.Intn(25)),
			DownBytes: int64(1 + s.Intn(1e6)), Conns: int64(1 + s.Intn(5))})
	}
	chunks := chunksOf(st, 2)
	p := NewPartial()
	p.Fold(chunks[0])
	sn := NewSnapshot(chunks[1])
	sn.Capture(p)
	last := sn.Rollup()
	sn = sn.Extend(dataset.NewStore())
	sn.Capture(p)
	v := sn.Rollup()
	oneArray := func(what string, a, b any) {
		t.Helper()
		ra, rb := reflect.ValueOf(a), reflect.ValueOf(b)
		if ra.Len() == 0 || ra.Len() != rb.Len() || ra.Pointer() != rb.Pointer() {
			t.Errorf("a page of no new rows made %s again (or has none): %d and %d entries", what, ra.Len(), rb.Len())
		}
	}
	for i := range v.samples {
		oneArray(fmt.Sprintf("sample %d", i), last.samples[i], v.samples[i])
	}
	oneArray("Fig. 16's rows", last.over, v.over)
	oneArray("Fig. 18's counts", last.pop, v.pop)
	oneArray("the first-flow order", last.flow, v.flow)
	oneArray("the best devices", last.devs, v.devs)
}
