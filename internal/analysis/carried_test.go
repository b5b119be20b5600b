package analysis

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/geo"
	"natpeek/internal/heartbeat"
	"natpeek/internal/rng"
	"natpeek/internal/stats"
)

// oracleKindCounts counts Table 2's rows after Heartbeats straight off
// st's rows, in KindCounts' order: per kind, the routers with a row of
// it and the countries st registers them in ("" for none).
func oracleKindCounts(st *dataset.Store) [len(tableKinds)]KindCount {
	var kinds [len(tableKinds)]map[string]bool
	for i := range kinds {
		kinds[i] = map[string]bool{}
	}
	for _, r := range st.Capacity {
		kinds[0][r.RouterID] = true
	}
	for _, r := range st.Uptime {
		kinds[1][r.RouterID] = true
	}
	for _, r := range st.Counts {
		kinds[2][r.RouterID] = true
	}
	for _, r := range st.WiFi {
		kinds[3][r.RouterID] = true
	}
	for _, r := range st.Flows {
		kinds[4][r.RouterID] = true
	}
	var out [len(tableKinds)]KindCount
	for i, ids := range kinds {
		countries := map[string]bool{}
		for id := range ids {
			countries[st.RouterCountry[id]] = true
		}
		out[i] = KindCount{Routers: len(ids), Countries: len(countries)}
	}
	return out
}

// TestCarriedSummariesFollowTheRoster: a chain of pages over one
// partial, each taking the last page's home summaries (Partial.last),
// with routers re-registered between pages — to the other group, to a
// country of the same group at another UTC offset, to a country geo does
// not know, or registered for the first time — and no new row. Every
// page carries every summary, and every kept-kind exhibit and Table 2's
// counts equal the row oracles over the page's roster. A summary that
// kept anything of the roster — a home's group, its country's offset —
// reads as the roster was when it was made.
func TestCarriedSummariesFollowTheRoster(t *testing.T) {
	s := rng.New(44).Child("carried")
	st := keptMix(s, 60, 3_000)
	for i := 0; i < 400; i++ { // flows for a third of the routers: Table 2's last row
		id := fmt.Sprintf("mix-%03d", 3*s.Intn(20))
		st.Flows = append(st.Flows, dataset.FlowRecord{RouterID: id, Device: dev(uint32(s.Intn(9))),
			Domain: "google.com", DownBytes: int64(1 + s.Intn(1e6)), Conns: 1})
	}
	// The base holds the roster and three chunks of rows; the page's tail
	// the fourth, which holds no registration.
	base := maps.Clone(st.RouterCountry)
	chunks := chunksOf(st, 4)
	tailRows := *chunks[3]
	tailRows.RouterCountry = map[string]string{}
	p := NewPartial()
	p.Fold(&dataset.Store{RouterCountry: maps.Clone(base)})
	for _, c := range chunks[:3] {
		p.Fold(c)
	}
	tail := map[string]string{} // the registrations the pages' tail holds
	sn := NewSnapshot(&tailRows)

	codes := geo.All()
	hb := heartbeat.NewLog()
	page := func(step int, what string) {
		t.Helper()
		sn.Capture(p)
		v := sn.Rollup()
		if step > 0 && v.Summarized() != 0 {
			t.Fatalf("page %d (%s): computed %d home summaries; a page with no new rows carries them all", step, what, v.Summarized())
		}
		want := maps.Clone(base)
		maps.Copy(want, tail)
		if got := sn.Store(nil).RouterCountry; !maps.Equal(got, want) {
			t.Fatalf("page %d (%s): the page's roster is %v, want %v", step, what, got, want)
		}
		o := *st
		o.RouterCountry = want
		ro := sn.Roster()
		same := func(exhibit string, want, got any) {
			t.Helper()
			if !reflect.DeepEqual(want, got) {
				t.Errorf("page %d (%s): %s differs:\n oracle %v\n page   %v", step, what, exhibit, want, got)
			}
		}
		kinds := v.Availability(hb, ro, win).KindCounts()
		same("KindCounts", oracleKindCounts(&o), [len(tableKinds)]KindCount(kinds[1:]))
		same("UniqueDevicesPerHome", oracleUniqueDevicesPerHome(&o), v.UniqueDevicesPerHome())
		w24, w5 := oracleUniqueDevicesPerBand(&o)
		g24, g5 := v.UniqueDevicesPerBand()
		same("UniqueDevicesPerBand", [2][]float64{w24, w5}, [2][]float64{g24, g5})
		for _, span := range []time.Duration{0, 24 * time.Hour, 21 * 24 * time.Hour} {
			same(fmt.Sprintf("AlwaysConnected(%v)", span), oracleAlwaysConnected(&o, span), v.AlwaysConnected(ro, span))
		}
		same("VisibleAPsByGroup", oracleVisibleAPsByGroup(&o), v.VisibleAPsByGroup(ro))
		same("AllFourPortsShares", oracleAllFourPortsShares(&o), v.AllFourPortsShares(ro))
		wd, we := oracleDiurnalDevices(&o)
		gd, ge := v.DiurnalDevices(ro)
		same("DiurnalDevices", [2]stats.HourBins{wd, we}, [2]stats.HourBins{gd, ge})
		wantC, gotC := oracleConnectedByGroup(&o), v.ConnectedByGroup(ro)
		if len(wantC) != len(gotC) {
			t.Errorf("page %d (%s): ConnectedByGroup has %d groups, oracle %d", step, what, len(gotC), len(wantC))
		}
		for g, w := range wantC {
			gg := gotC[g]
			for series, pair := range map[string][2]stats.Summary{"wired": {w.Wired, gg.Wired},
				"wireless": {w.Wireless, gg.Wireless}, "2.4GHz": {w.W24, gg.W24}, "5GHz": {w.W5, gg.W5}} {
				ws, gs := pair[0], pair[1]
				if math.Abs(ws.Stddev-gs.Stddev) > 1e-12*ws.Stddev {
					t.Errorf("page %d (%s): ConnectedByGroup %v %s stddev %v, oracle %v", step, what, g, series, gs.Stddev, ws.Stddev)
				}
				ws.Stddev, gs.Stddev = 0, 0
				same(fmt.Sprintf("ConnectedByGroup %v %s", g, series), ws, gs)
			}
		}
	}
	// moved returns a country for router id other than the one it has:
	// "XX", which geo does not know (how 2), one of the other group (0),
	// or one of the same group at another UTC offset (1). A router of no
	// known country gets any country geo knows.
	moved := func(id string, how int) string {
		code, ok := tail[id]
		if !ok {
			code = base[id]
		}
		cur, known := geo.Lookup(code)
		if known && how == 2 {
			return "XX"
		}
		for {
			c := codes[s.Intn(len(codes))]
			if !known || how == 0 && c.Developed != cur.Developed ||
				how == 1 && c.Developed == cur.Developed && c.UTCOffset != cur.UTCOffset {
				return c.Code
			}
		}
	}
	page(0, "the first page")
	for step := 1; step <= 24; step++ {
		regs := map[string]string{}
		for range 1 + s.Intn(6) {
			id := fmt.Sprintf("mix-%03d", s.Intn(60))
			regs[id] = moved(id, s.Intn(3))
		}
		what := fmt.Sprintf("%d routers re-registered", len(regs))
		if step%3 == 0 {
			// In the base: a fold of registrations alone. The tail's
			// registrations still win on the page.
			p.Fold(&dataset.Store{RouterCountry: maps.Clone(regs)})
			maps.Copy(base, regs)
			sn = sn.Extend(dataset.NewStore())
			what += " in the base"
		} else {
			sn = sn.Extend(&dataset.Store{RouterCountry: maps.Clone(regs)})
			maps.Copy(tail, regs)
			what += " in the tail"
		}
		page(step, what)
	}
}
