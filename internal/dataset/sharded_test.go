package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"natpeek/internal/heartbeat"
	"natpeek/internal/mac"
	"natpeek/internal/rng"
)

var shardT0 = time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)

// applyRandomRow appends one deterministic pseudo-random row for router
// id to st; kind selection and row contents are pure functions of r.
func applyRandomRow(st *Store, id string, i int, r *rng.Stream) {
	switch r.Intn(7) {
	case 0:
		st.Uptime = append(st.Uptime, UptimeReport{
			RouterID: id, ReportedAt: shardT0.Add(time.Duration(i) * time.Minute),
			Uptime: time.Duration(r.Intn(1e6)) * time.Second,
		})
	case 1:
		st.Capacity = append(st.Capacity, CapacityMeasure{
			RouterID: id, MeasuredAt: shardT0.Add(time.Duration(i) * time.Minute),
			UpBps: float64(r.Intn(1e7)), DownBps: float64(r.Intn(1e8)),
		})
	case 2:
		st.Counts = append(st.Counts, DeviceCount{
			RouterID: id, At: shardT0.Add(time.Duration(i) * time.Hour),
			Wired: r.Intn(4), W24: r.Intn(8), W5: r.Intn(5),
		})
	case 3:
		st.Sightings = append(st.Sightings, DeviceSighting{
			RouterID: id, At: shardT0.Add(time.Duration(i) * time.Hour),
			Device: mac.FromOUI(0x001CB3, uint32(r.Intn(1<<20))), Kind: ConnKind(r.Intn(3)),
		})
	case 4:
		st.WiFi = append(st.WiFi, WiFiScan{
			RouterID: id, At: shardT0.Add(time.Duration(i) * 10 * time.Minute),
			Band: "2.4GHz", Channel: 1 + r.Intn(11), VisibleAPs: r.Intn(20), Clients: r.Intn(6),
		})
	case 5:
		st.Flows = append(st.Flows, FlowRecord{
			RouterID: id, Device: mac.FromOUI(0x001CB3, uint32(r.Intn(1<<20))),
			Domain: "anon-0123456789abcdef", Proto: "tcp",
			First: shardT0.Add(time.Duration(i) * time.Minute), Last: shardT0.Add(time.Duration(i+5) * time.Minute),
			UpBytes: int64(r.Intn(1e6)), DownBytes: int64(r.Intn(1e7)),
			UpPkts: int64(r.Intn(1e3)), DownPkts: int64(r.Intn(1e4)), Conns: 1 + int64(r.Intn(9)),
		})
	default:
		st.Throughput = append(st.Throughput, ThroughputSample{
			RouterID: id, Minute: shardT0.Add(time.Duration(i) * time.Minute), Dir: "down",
			PeakBps: float64(r.Intn(1e8)), TotalBytes: int64(r.Intn(1e7)),
		})
	}
}

// TestShardedMatchesSeedStoreCSV is the behavior-preservation regression
// for the sharding refactor: the same serial append sequence, run once
// through a plain (seed) Store and once through the striped store, must
// produce byte-identical CSV files — same rows, same order, same
// digests.
func TestShardedMatchesSeedStoreCSV(t *testing.T) {
	seed := NewStore()
	striped := NewSharded(8)

	r := rng.New(42)
	for i := 0; i < 5000; i++ {
		id := fmt.Sprintf("bismark-%03d", r.Intn(40))
		// Child derivation is pure, so both stores see the identical row.
		seed.RouterCountry[id] = "US"
		applyRandomRow(seed, id, i, r.Child("row").ChildN("i", i))
		applied := striped.Apply(id, fmt.Sprintf("k:%s:%d", id, i), func(st *Store) {
			st.RouterCountry[id] = "US"
			applyRandomRow(st, id, i, r.Child("row").ChildN("i", i))
		})
		if !applied {
			t.Fatalf("fresh key %d reported duplicate", i)
		}
	}

	// Identical heartbeat state on both sides.
	seed.Heartbeats.RecordRun("bismark-000", heartbeat.Run{Start: shardT0, Interval: time.Minute, Count: 500})
	striped.Heartbeats.RecordRun("bismark-000", heartbeat.Run{Start: shardT0, Interval: time.Minute, Count: 500})

	dirSeed, dirStriped := t.TempDir(), t.TempDir()
	if err := seed.Save(dirSeed); err != nil {
		t.Fatal(err)
	}
	if err := striped.Merge().Save(dirStriped); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		FileRoster, FileHeartbeats, FileUptime, FileCapacity, FileCounts,
		FileSightings, FileWiFi, FileFlows, FileThroughput,
	} {
		a := mustRead(t, filepath.Join(dirSeed, name))
		b := mustRead(t, filepath.Join(dirStriped, name))
		da, db := sha256.Sum256(a), sha256.Sum256(b)
		if da != db {
			t.Errorf("%s differs: seed %s != striped %s (rows or order changed)",
				name, hex.EncodeToString(da[:8]), hex.EncodeToString(db[:8]))
		}
	}

	// The merged view must equal the seed store field-for-field too.
	m := striped.Merge()
	if !reflect.DeepEqual(seed.Uptime, m.Uptime) || !reflect.DeepEqual(seed.Flows, m.Flows) ||
		!reflect.DeepEqual(seed.Sightings, m.Sightings) || !reflect.DeepEqual(seed.Throughput, m.Throughput) {
		t.Error("merged store differs from seed store")
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardedConcurrentStress hammers the striped store from many
// goroutines — fresh appends, key replays, and Save/Merge/RowCounts
// running mid-flight — and then checks exact row conservation: every
// distinct key's row lands exactly once. Run under -race this is the
// striping's data-race gate.
func TestShardedConcurrentStress(t *testing.T) {
	const (
		writers  = 16
		routers  = 64
		perGoro  = 400
		replayEv = 5 // every 5th apply replays the previous key
	)
	s := NewSharded(0)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				id := fmt.Sprintf("r-%03d", (w*perGoro+i)%routers)
				key := fmt.Sprintf("%s:w%d:%d", id, w, i)
				apply := func(st *Store) {
					st.RouterCountry[id] = "US"
					st.Uptime = append(st.Uptime, UptimeReport{
						RouterID: id, ReportedAt: shardT0,
						Uptime: time.Duration(w*perGoro+i) * time.Second,
					})
				}
				if !s.Apply(id, key, apply) {
					t.Errorf("fresh key %s deduped", key)
					return
				}
				if i%replayEv == 0 {
					if s.Apply(id, key, apply) {
						t.Errorf("replayed key %s applied twice", key)
						return
					}
				}
			}
		}(w)
	}
	// Concurrent readers: snapshots and saves must not race the writers.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		dir := t.TempDir()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.RowCounts()
			m := s.Merge()
			if i%10 == 0 {
				if err := m.Save(dir); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()

	m := s.Merge()
	const want = writers * perGoro
	if len(m.Uptime) != want {
		t.Fatalf("uptime rows = %d, want exactly %d", len(m.Uptime), want)
	}
	seen := make(map[time.Duration]bool, want)
	for _, r := range m.Uptime {
		if seen[r.Uptime] {
			t.Fatalf("row %v merged twice", r.Uptime)
		}
		seen[r.Uptime] = true
	}
	if got := len(m.RouterCountry); got != routers {
		t.Fatalf("roster = %d, want %d", got, routers)
	}
	if rc := s.RowCounts(); rc.Uptime != want || rc.Routers != routers {
		t.Fatalf("RowCounts = %+v", rc)
	}
	if s.DedupeLen() != want {
		t.Fatalf("dedupe index = %d keys, want %d", s.DedupeLen(), want)
	}
}

// TestShardedMergeOrderSequential pins the order contract explicitly: a
// serial append sequence merges back in exactly the order it was
// applied, across routers that land on different shards.
func TestShardedMergeOrderSequential(t *testing.T) {
	s := NewSharded(4)
	const n = 200
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("router-%d", i%13)
		i := i
		s.Apply(id, fmt.Sprintf("k%d", i), func(st *Store) {
			st.Uptime = append(st.Uptime, UptimeReport{
				RouterID: id, ReportedAt: shardT0, Uptime: time.Duration(i) * time.Second,
			})
		})
	}
	m := s.Merge()
	if len(m.Uptime) != n {
		t.Fatalf("rows = %d", len(m.Uptime))
	}
	for i, r := range m.Uptime {
		if r.Uptime != time.Duration(i)*time.Second {
			t.Fatalf("row %d out of order: %v", i, r.Uptime)
		}
	}
}

// TestShardedLoadRoundTrip: Save (concurrent fan-out) then Load
// (concurrent fan-in) must reproduce the rows.
func TestShardedLoadRoundTrip(t *testing.T) {
	s := NewSharded(0)
	r := rng.New(7)
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("rt-%02d", i%9)
		s.Apply(id, fmt.Sprintf("key-%d", i), func(st *Store) {
			st.RouterCountry[id] = "IN"
			applyRandomRow(st, id, i, r.ChildN("row", i))
		})
	}
	s.Heartbeats.RecordRun("rt-00", heartbeat.Run{Start: shardT0, Interval: time.Minute, Count: 60})
	dir := t.TempDir()
	if err := s.Merge().Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Merge()
	if len(got.Uptime) != len(want.Uptime) || len(got.Flows) != len(want.Flows) ||
		len(got.Sightings) != len(want.Sightings) || len(got.WiFi) != len(want.WiFi) ||
		len(got.Counts) != len(want.Counts) || len(got.Capacity) != len(want.Capacity) ||
		len(got.Throughput) != len(want.Throughput) {
		t.Fatalf("row counts changed across save/load")
	}
	if got.Heartbeats.Count("rt-00") != 60 {
		t.Fatalf("heartbeats = %d", got.Heartbeats.Count("rt-00"))
	}
	if !reflect.DeepEqual(got.RouterCountry, want.RouterCountry) {
		t.Fatalf("roster changed across save/load")
	}
}

// TestShardedOverSharedDedupe pins what the segment store relies on at
// memtable rotation: a successor built over the sealed store's index
// rejects exactly the keys the sealed one applied, with no key copied,
// fresh keys still apply, and each stripe keeps its FIFO order.
func TestShardedOverSharedDedupe(t *testing.T) {
	d := NewDedupe(4, 0)
	old := NewShardedOver(d)
	key := func(i int) (id, k string) {
		id = fmt.Sprintf("bismark-%03d", i%9)
		return id, fmt.Sprintf("%s:%d", id, i)
	}
	addRow := func(id string) func(*Store) {
		return func(st *Store) {
			st.Uptime = append(st.Uptime, UptimeReport{RouterID: id, ReportedAt: shardT0})
		}
	}
	for i := 0; i < 200; i++ {
		id, k := key(i)
		if !old.Apply(id, k, addRow(id)) {
			t.Fatalf("fresh key %d reported duplicate", i)
		}
	}
	order := d.MatchedKeys(func(string) bool { return true })

	fresh := NewShardedOver(d)
	if len(fresh.shards) != len(old.shards) || fresh.DedupeLen() != 200 {
		t.Fatalf("successor: %d shards, %d keys; want %d, 200", len(fresh.shards), fresh.DedupeLen(), len(old.shards))
	}
	// Every replay must be rejected without touching the rows.
	for i := 0; i < 200; i++ {
		id, k := key(i)
		if fresh.Apply(id, k, addRow(id)) {
			t.Fatalf("replayed key %d applied by the successor", i)
		}
	}
	if rc := fresh.RowCounts(); rc.Uptime != 0 {
		t.Fatalf("replays appended %d rows", rc.Uptime)
	}
	if !fresh.Apply("bismark-000", "bismark-000:new", addRow("bismark-000")) {
		t.Fatal("fresh key rejected")
	}
	if old.DedupeLen() != 201 || old.RowCounts().Uptime != 200 {
		t.Fatalf("sealed store: %d keys, %d rows; want the shared 201 and its own 200", old.DedupeLen(), old.RowCounts().Uptime)
	}

	// Replays moved nothing: the window is the old one, stripe by stripe
	// in insertion order, with the new key last in its router's stripe.
	got := d.MatchedKeys(func(r string) bool { return r != "bismark-000" })
	was := order[:0:0]
	for _, rk := range order {
		if rk.Router != "bismark-000" {
			was = append(was, rk)
		}
	}
	if !reflect.DeepEqual(got, was) {
		t.Fatalf("FIFO order moved: %v, was %v", got, was)
	}
	if got := d.MatchedKeys(func(r string) bool { return r == "bismark-000" }); len(got) != 24 || got[23].Key != "bismark-000:new" {
		t.Fatalf("bismark-000 window = %v, want its 23 keys then the new one", got)
	}
}

// TestDedupeWindowIsFIFO pins the bound: with room for three keys per
// stripe the fourth evicts the oldest, whose replay then applies again,
// while keys still inside the window stay rejected.
func TestDedupeWindowIsFIFO(t *testing.T) {
	d := NewDedupe(2, 3)
	for _, k := range []string{"r:1", "r:2", "r:3", "r:4"} {
		if !d.Mark("r", k) {
			t.Fatalf("fresh key %s rejected", k)
		}
	}
	if d.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", d.Len())
	}
	for _, k := range []string{"r:2", "r:3", "r:4"} {
		if d.Mark("r", k) {
			t.Fatalf("key %s inside the window re-applied", k)
		}
	}
	if !d.Mark("r", "r:1") { // evicts r:2
		t.Fatal("key older than the window was still rejected")
	}
	want := []RouterKey{{"r", "r:3"}, {"r", "r:4"}, {"r", "r:1"}}
	if got := d.MatchedKeys(func(string) bool { return true }); !reflect.DeepEqual(got, want) {
		t.Fatalf("window = %v, want %v", got, want)
	}
	// Long run at a small bound: the evicted prefix is compacted away
	// and the window stays the last three.
	for i := 0; i < 100; i++ {
		d.Mark("r", fmt.Sprintf("r:n%d", i))
	}
	want = []RouterKey{{"r", "r:n97"}, {"r", "r:n98"}, {"r", "r:n99"}}
	if got := d.MatchedKeys(func(string) bool { return true }); !reflect.DeepEqual(got, want) {
		t.Fatalf("window after 100 more = %v, want %v", got, want)
	}
}

// TestMergeFromMatchesMerge: a chain of MergeFrom reads, each from the
// cursor the last one returned, concatenates to Merge at every step —
// across concurrent appends to every shard, across bursts that coalesce
// into the latest segment on both sides of a read, and across an
// extraction, which starts the chain over. A reader chains beside the
// writers throughout and must reach Merge too.
func TestMergeFromMatchesMerge(t *testing.T) {
	s := NewSharded(4)
	var chain *Store
	var c Cursor
	step := func(what string) {
		t.Helper()
		part, next := s.MergeFrom(c)
		if next.Restarted(c) {
			chain = nil
		}
		chain, c = chainOn(chain, part), next
		if want := s.Merge(); !reflect.DeepEqual(chain, want) {
			t.Fatalf("%s: the chain of MergeFrom reads holds %+v, Merge %+v", what, CountRows(chain), CountRows(want))
		}
	}
	uptime := func(id string, i int) func(*Store) {
		return func(st *Store) {
			st.RouterCountry[id] = "US"
			st.Uptime = append(st.Uptime, UptimeReport{RouterID: id, ReportedAt: shardT0, Uptime: time.Duration(i)})
		}
	}

	step("empty store")
	for i := 0; i < 3; i++ {
		s.Append("burst", uptime("burst", i))
	}
	step("a burst")
	for i := 3; i < 6; i++ { // coalesces into the segment the last read ended in
		s.Append("burst", uptime("burst", i))
	}
	step("the burst grows past the read")

	stop := make(chan struct{})
	var rg sync.WaitGroup
	var beside *Store
	var bc Cursor
	rg.Add(1)
	go func() { // chains beside the writers
		defer rg.Done()
		for {
			part, next := s.MergeFrom(bc)
			if next.Restarted(bc) {
				beside = nil
			}
			beside, bc = chainOn(beside, part), next
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for round := 0; round < 6; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rng.New(uint64(round)).Child(fmt.Sprintf("writer-%d", w))
				for i := 0; i < 50; i++ {
					id := fmt.Sprintf("r-%02d", r.Intn(12))
					if r.Bool(0.3) { // a run of one router's rows
						for j := 0; j < 1+r.Intn(4); j++ {
							s.Append(id, uptime(id, round*1000+i))
						}
						continue
					}
					s.Append(id, func(st *Store) {
						st.RouterCountry[id] = "US"
						applyRandomRow(st, id, round*1000+i, r)
					})
				}
			}()
		}
		wg.Wait()
		step(fmt.Sprintf("round %d", round))
		if round == 3 {
			s.ExtractRows(func(id string) bool { return id == "r-05" })
			step("an extraction")
		}
	}
	close(stop)
	rg.Wait()
	part, next := s.MergeFrom(bc)
	if next.Restarted(bc) {
		beside = nil
	}
	if beside = chainOn(beside, part); !reflect.DeepEqual(beside, s.Merge()) {
		t.Fatalf("the chain read beside the writers holds %+v, Merge %+v", CountRows(beside), CountRows(s.Merge()))
	}
}

// chainOn appends part's rows to chain (nil: none yet), lays part's
// roster — the routers registered or moved since the last read — over
// chain's, and takes part's heartbeat log.
func chainOn(chain, part *Store) *Store {
	if chain == nil {
		return part
	}
	for _, k := range Kinds {
		k.Append(chain, part, 0, k.Len(part))
	}
	maps.Copy(chain.RouterCountry, part.RouterCountry)
	chain.Heartbeats = part.Heartbeats
	return chain
}

// TestMergeFromRosterHoldsOnlyChanges: a read from a cursor returns the
// routers registered or moved since, not the roster: a registration to
// the country a router already has is no change. Moves follow Merge's
// roster, also for a router registered in more than one stripe, where
// Merge gives the latest registration's country; and the chain's
// rosters, later ones winning, stay Merge's.
func TestMergeFromRosterHoldsOnlyChanges(t *testing.T) {
	s := NewSharded(4)
	var chain *Store
	var c Cursor
	read := func(what string, want ...string) {
		t.Helper()
		part, next := s.MergeFrom(c)
		chain, c = chainOn(chain, part), next
		var got []string
		for id := range part.RouterCountry {
			got = append(got, id)
		}
		if slices.Sort(got); !slices.Equal(got, want) {
			t.Errorf("%s: the read's roster names %v, want %v", what, got, want)
		}
		if m := s.Merge(); !maps.Equal(chain.RouterCountry, m.RouterCountry) {
			t.Fatalf("%s: the chain's roster is %v, Merge's %v", what, chain.RouterCountry, m.RouterCountry)
		}
	}
	register := func(stripe string, ids map[string]string) {
		s.Append(stripe, func(st *Store) { maps.Copy(st.RouterCountry, ids) })
	}
	register("a", map[string]string{"r1": "US", "r2": "US", "r3": "IN"})
	read("first read", "r1", "r2", "r3")
	read("nothing since")
	register("a", map[string]string{"r1": "US", "r2": "US"})
	s.Append("a", func(st *Store) {
		st.RouterCountry["r1"] = "US"
		st.Uptime = append(st.Uptime, UptimeReport{RouterID: "r1", ReportedAt: shardT0})
	})
	read("the same countries again")
	register("a", map[string]string{"r2": "PK"})
	register("b", map[string]string{"r4": "BR"})
	read("a move and a join", "r2", "r4")
	// r3 goes into a second stripe too; Merge gives it the country of
	// its latest registration.
	other := "b"
	for i := 0; s.dedupe.stripeOf(other) == s.dedupe.stripeOf("a"); i++ {
		other = fmt.Sprintf("b%d", i)
	}
	for _, cc := range []string{"ZA", "IN", "ZA"} {
		register(other, map[string]string{"r3": cc})
		read("r3 registered in a second stripe as "+cc, "r3")
	}
}

// TestRosterFollowsLatestRegistration: a router registered through two
// stripes has the country of its latest registration, whatever the
// stripes' order: in Merge, in a chain of MergeFrom reads, in what an
// extraction moves, and counted once in RowCounts. x is registered as
// US through stripe 27, then as PK through stripe 1, then as US again
// through stripe 27, whose roster already holds it as US.
func TestRosterFollowsLatestRegistration(t *testing.T) {
	s := NewSharded(DefaultShards)
	through := func(stripe int) string {
		for i := 0; ; i++ {
			if key := fmt.Sprintf("key-%d", i); s.dedupe.stripeOf(key) == stripe {
				return key
			}
		}
	}
	register := func(stripe int, cc string) {
		s.Append(through(stripe), func(st *Store) { st.RouterCountry["x"] = cc })
	}
	var chain *Store
	var c Cursor
	check := func(what, want string) {
		t.Helper()
		part, next := s.MergeFrom(c)
		chain, c = chainOn(chain, part), next
		if got := s.Merge().RouterCountry["x"]; got != want {
			t.Errorf("%s: Merge has x in %q, want %q", what, got, want)
		}
		if got := chain.RouterCountry["x"]; got != want {
			t.Errorf("%s: the MergeFrom chain has x in %q, want %q", what, got, want)
		}
		if got := s.RowCounts().Routers; got != 1 {
			t.Errorf("%s: RowCounts counts %d routers, want 1", what, got)
		}
	}
	register(27, "US")
	check("US through stripe 27", "US")
	register(1, "PK")
	check("then PK through stripe 1", "PK")
	register(27, "US")
	check("then US again through stripe 27", "US")
	moved := s.ExtractRows(func(id string) bool { return id == "x" })
	if got := moved.RouterCountry["x"]; got != "US" {
		t.Errorf("the extraction moved x in %q, want US", got)
	}
	if got := s.RowCounts().Routers; got != 0 {
		t.Errorf("after the extraction RowCounts counts %d routers, want 0", got)
	}
}
