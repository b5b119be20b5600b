package dataset

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"natpeek/internal/rng"
)

// seedRebalance fills a Sharded with uptime rows for routers rt-0..rt-8
// (keyed, arrival-ordered by the Uptime duration) plus roster entries.
func seedRebalance(t *testing.T, stripes, rows int) *Sharded {
	t.Helper()
	s := NewSharded(stripes)
	for i := 0; i < rows; i++ {
		id := fmt.Sprintf("rt-%d", i%9)
		i := i
		if !s.Apply(id, fmt.Sprintf("%s:k%d", id, i), func(st *Store) {
			st.RouterCountry[id] = "US"
			st.Uptime = append(st.Uptime, UptimeReport{
				RouterID: id, ReportedAt: shardT0, Uptime: time.Duration(i) * time.Second,
			})
		}) {
			t.Fatalf("seed apply %d deduped", i)
		}
	}
	return s
}

func matchPrefixes(prefixes ...string) func(string) bool {
	return func(router string) bool {
		for _, p := range prefixes {
			if router == p {
				return true
			}
		}
		return false
	}
}

func TestKeyRouter(t *testing.T) {
	cases := map[string]string{
		"rt-1:nonce:3": "rt-1",
		"rt-1:":        "rt-1",
		":nonce":       "", // empty prefix is not a router
		"no-colon":     "",
		"":             "",
	}
	for key, want := range cases {
		if got := KeyRouter(key); got != want {
			t.Errorf("KeyRouter(%q) = %q, want %q", key, got, want)
		}
	}
}

// TestExtractRoutersMovesOnlyMatched is the core extract contract:
// matched rows and roster entries leave, unmatched ones stay, and BOTH
// sides keep their global arrival order exactly — the destination
// replays the moved rows in the order they originally arrived, and the
// source's surviving merge looks as if the moved rows never existed.
func TestExtractRoutersMovesOnlyMatched(t *testing.T) {
	const rows = 300
	s := seedRebalance(t, 4, rows)
	match := matchPrefixes("rt-2", "rt-5")

	moved, keys := s.ExtractRouters(match)

	wantMoved := 0
	for i := 0; i < rows; i++ {
		if match(fmt.Sprintf("rt-%d", i%9)) {
			wantMoved++
		}
	}
	if len(moved.Uptime) != wantMoved {
		t.Fatalf("moved %d rows, want %d", len(moved.Uptime), wantMoved)
	}
	if len(keys) != wantMoved {
		t.Fatalf("extracted %d keys, want %d", len(keys), wantMoved)
	}
	for _, rk := range keys {
		if !match(rk.Router) || !strings.HasPrefix(rk.Key, rk.Router+":") {
			t.Fatalf("extracted key %+v does not belong to a matched router", rk)
		}
	}
	if len(moved.RouterCountry) != 2 || moved.RouterCountry["rt-2"] != "US" {
		t.Fatalf("moved roster = %v, want the two matched routers", moved.RouterCountry)
	}

	// Both sides ascend in arrival stamps (the seeded Uptime duration),
	// and together they partition the original sequence.
	assertAscending := func(name string, got []UptimeReport) {
		last := -1 * time.Second
		for _, r := range got {
			if r.Uptime <= last {
				t.Fatalf("%s rows out of arrival order at %v", name, r.Uptime)
			}
			last = r.Uptime
		}
	}
	rest := s.Merge()
	assertAscending("moved", moved.Uptime)
	assertAscending("surviving", rest.Uptime)
	if len(rest.Uptime)+len(moved.Uptime) != rows {
		t.Fatalf("rows vanished: %d moved + %d left != %d", len(moved.Uptime), len(rest.Uptime), rows)
	}
	for _, r := range rest.Uptime {
		if match(r.RouterID) {
			t.Fatalf("matched router %s still has rows at the source", r.RouterID)
		}
	}
	if _, stillThere := rest.RouterCountry["rt-2"]; stillThere {
		t.Fatal("matched roster entry survived the extract")
	}
	if rest.RouterCountry["rt-0"] != "US" {
		t.Fatal("unmatched roster entry lost in the extract")
	}
}

// TestExtractRetainsDedupeKeys pins the design's exactly-once hinge: an
// extracted router's idempotency keys stay in the source's dedupe index,
// so a client retry landing at the old home AFTER the move is flagged
// duplicate instead of re-creating a row that now lives elsewhere.
func TestExtractRetainsDedupeKeys(t *testing.T) {
	s := seedRebalance(t, 2, 90)
	moved, keys := s.ExtractRouters(matchPrefixes("rt-3"))
	if len(moved.Uptime) == 0 || len(keys) == 0 {
		t.Fatal("nothing extracted")
	}
	for _, rk := range keys {
		if s.Apply(rk.Router, rk.Key, func(st *Store) {
			st.Uptime = append(st.Uptime, UptimeReport{RouterID: rk.Router})
		}) {
			t.Fatalf("retry of moved key %q re-applied at the source", rk.Key)
		}
	}
	if got := len(s.Merge().Uptime); got != 90-len(moved.Uptime) {
		t.Fatalf("source rows = %d after retries, want %d", got, 90-len(moved.Uptime))
	}
	// A second extract finds no rows but still reports the retained
	// keys — the transfer engine re-pushes them on retried sessions.
	again, keys2 := s.ExtractRouters(matchPrefixes("rt-3"))
	if len(again.Uptime) != 0 {
		t.Fatalf("second extract found %d rows", len(again.Uptime))
	}
	if len(keys2) != len(keys) {
		t.Fatalf("second extract reports %d keys, want the retained %d", len(keys2), len(keys))
	}
}

// filterRows is the test's own partition, independent of the kind table:
// it walks Store's slice fields by reflection and keeps, in order, the
// rows (and roster entries) whose RouterID keep selects.
func filterRows(st *Store, keep func(string) bool) *Store {
	out := newRows()
	for id, cc := range st.RouterCountry {
		if keep(id) {
			out.RouterCountry[id] = cc
		}
	}
	for _, name := range sliceFields() {
		in, dst := reflect.ValueOf(st).Elem().FieldByName(name), reflect.ValueOf(out).Elem().FieldByName(name)
		for i := 0; i < in.Len(); i++ {
			if keep(in.Index(i).FieldByName("RouterID").String()) {
				dst.Set(reflect.Append(dst, in.Index(i)))
			}
		}
	}
	return out
}

// sameRowsAndRoster compares every slice field (an empty one may be nil
// on one side only) and the roster.
func sameRowsAndRoster(t *testing.T, what string, want, got *Store) {
	t.Helper()
	for _, name := range sliceFields() {
		w, g := reflect.ValueOf(want).Elem().FieldByName(name), reflect.ValueOf(got).Elem().FieldByName(name)
		if w.Len()+g.Len() > 0 && !reflect.DeepEqual(w.Interface(), g.Interface()) {
			t.Errorf("%s: %s differs (%d rows, want %d)", what, name, g.Len(), w.Len())
		}
	}
	if !reflect.DeepEqual(want.RouterCountry, got.RouterCountry) {
		t.Errorf("%s: roster differs: %v, want %v", what, got.RouterCountry, want.RouterCountry)
	}
}

// TestSplitRoutersPartitionsEveryKind runs seeded serial appends of all
// seven kinds into a plain Store and a Sharded side by side and holds
// everything built on the kind table to the plain store: Merge equals it
// slice for slice, Save writes the same bytes, SplitRouters and
// ExtractRouters cut it into the reflection-built partition with
// per-kind order kept, and what an extract leaves merges and saves as if
// the moved rows had never arrived.
func TestSplitRoutersPartitionsEveryKind(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.New(seed)
		plain, striped := NewStore(), NewSharded(1+r.Intn(8))
		for i, n := 0, 300+r.Intn(700); i < n; i++ {
			id := fmt.Sprintf("rt-%d", r.Intn(10))
			row := func(st *Store) {
				st.RouterCountry[id] = "US"
				applyRandomRow(st, id, i, r.Child("row").ChildN("i", i))
			}
			row(plain)
			if !striped.Apply(id, fmt.Sprintf("%s:k%d", id, i), row) {
				t.Fatalf("seed %d: fresh key %d deduped", seed, i)
			}
		}
		for _, name := range sliceFields() {
			if reflect.ValueOf(plain).Elem().FieldByName(name).Len() == 0 {
				t.Fatalf("seed %d: no %s rows generated", seed, name)
			}
		}
		what := func(s string) string { return fmt.Sprintf("seed %d: %s", seed, s) }
		sameSave := func(s string, want *Store, got *Sharded) {
			t.Helper()
			wantDir, gotDir := t.TempDir(), t.TempDir()
			want.Heartbeats = got.Heartbeats
			if err := want.Save(wantDir); err != nil {
				t.Fatal(err)
			}
			if err := got.Save(gotDir); err != nil {
				t.Fatal(err)
			}
			names := []string{FileRoster, FileHeartbeats}
			for i := range Kinds {
				names = append(names, Kinds[i].File)
			}
			for _, name := range names {
				if !bytes.Equal(mustRead(t, filepath.Join(wantDir, name)), mustRead(t, filepath.Join(gotDir, name))) {
					t.Errorf("%s: %s differs", what(s), name)
				}
			}
		}

		sameRowsAndRoster(t, what("Merge vs plain"), plain, striped.Merge())
		sameSave("Save vs plain", plain, striped)
		if rc := striped.RowCounts(); rc != CountRows(plain) || striped.Rows() != rc.Total() {
			t.Errorf("%s", what(fmt.Sprintf("RowCounts %+v, Rows %d, want %+v", rc, striped.Rows(), CountRows(plain))))
		}

		moving := map[string]bool{}
		for i := 0; i < 10; i++ {
			moving[fmt.Sprintf("rt-%d", i)] = r.Intn(3) == 0
		}
		match := func(id string) bool { return moving[id] }
		wantHit := filterRows(plain, match)
		wantRest := filterRows(plain, func(id string) bool { return !match(id) })

		hit, rest := SplitRouters(plain, match)
		sameRowsAndRoster(t, what("SplitRouters hit"), wantHit, hit)
		sameRowsAndRoster(t, what("SplitRouters rest"), wantRest, rest)

		moved, keys := striped.ExtractRouters(match)
		sameRowsAndRoster(t, what("ExtractRouters moved"), wantHit, moved)
		sameRowsAndRoster(t, what("Merge after extract"), wantRest, striped.Merge())
		sameSave("Save after extract", wantRest, striped)
		if want := CountRows(wantHit).Total(); len(keys) != want {
			t.Errorf("%s", what(fmt.Sprintf("extract returned %d keys, want one per moved row, %d", len(keys), want)))
		}
		// Appends after the extract land on the rebuilt stripes.
		for i := 0; i < 100; i++ {
			id := fmt.Sprintf("rt-%d", r.Intn(10))
			row := func(st *Store) { applyRandomRow(st, id, i, r.Child("late").ChildN("i", i)) }
			row(wantRest)
			striped.Append(id, row)
		}
		sameRowsAndRoster(t, what("Merge after extract and more appends"), wantRest, striped.Merge())
		if want := CountRows(wantRest).Total(); striped.Rows() != want {
			t.Errorf("%s", what(fmt.Sprintf("Rows() = %d after extract, want %d", striped.Rows(), want)))
		}
	}
}

// TestExtractConcurrentWithIngest races extraction against live keyed
// ingest: every row must end up in exactly one place — extracted, or
// still at the source — and the dedupe index must keep every key.
func TestExtractConcurrentWithIngest(t *testing.T) {
	s := NewSharded(4)
	const writers, perWriter = 4, 200
	done := make(chan int, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			applied := 0
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("rt-%d", i%7)
				key := fmt.Sprintf("%s:w%d:%d", id, w, i)
				if s.Apply(id, key, func(st *Store) {
					st.Uptime = append(st.Uptime, UptimeReport{RouterID: id})
				}) {
					applied++
				}
			}
			done <- applied
		}(w)
	}
	var movedRows int
	match := matchPrefixes("rt-0", "rt-3", "rt-6")
	for i := 0; i < 50; i++ {
		moved, _ := s.ExtractRouters(match)
		movedRows += len(moved.Uptime)
	}
	applied := 0
	for w := 0; w < writers; w++ {
		applied += <-done
	}
	final, _ := s.ExtractRouters(match)
	movedRows += len(final.Uptime)
	if got := movedRows + len(s.Merge().Uptime); got != applied {
		t.Fatalf("rows lost or duplicated under concurrent extract: %d accounted, %d applied", got, applied)
	}
}
