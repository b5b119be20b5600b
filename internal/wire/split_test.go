package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/trace"
)

// The split oracle. The reference is the path the cluster front took
// before the splitter: decode every item, deep-copy it out of the
// decoder's scratch, pick its router (Payload.Router, else the fallback),
// place it, append the group's route span to every keyed item, and
// AppendBatch each group. A Splitter must reproduce every group byte for
// byte, and a successor's Index the reference's router→keys index.

// testFallback stands in for the cluster's rule: a raw body's first
// bytes, else the key's router prefix.
func testFallback(kind Kind, endpoint string, raw []byte, key string) string {
	if kind == KindRaw && len(raw) > 0 {
		return "raw:" + endpoint + ":" + string(raw[:min(len(raw), 4)])
	}
	if i := strings.IndexByte(key, ':'); i > 0 {
		return key[:i]
	}
	return ""
}

// testPlacement maps routers onto k groups by hash, leaving out (-1) the
// routers of one extra bucket so the validate-only path runs too. The
// bucket→group numbering follows first use, as NewGroup's does.
type testPlacement struct {
	k       int
	buckets map[int]int
}

func (p *testPlacement) bucket(router string) int {
	h := fnv.New32a()
	h.Write([]byte(router))
	return int(h.Sum32() % uint32(p.k+1))
}

// routeSpan is the span every keyed item of group gi carries; its
// attrs collide with strings the items use themselves.
func routeSpan(gi int) *trace.Span {
	return &trace.Span{Name: "front.route", Status: trace.StatusOK,
		Start: t0().Add(-time.Second), End: t0(),
		Attrs: []trace.Attr{{K: "front", V: "front-0"}, {K: "node", V: "router-01"}, {K: "replicas", V: strconv.Itoa(gi)}}}
}

// referenceSplit is the decode → clone → route → AppendBatch path.
func referenceSplit(batch []byte, k int, span bool) (groups [][]byte, keys map[string][]string, items int, err error) {
	var d Decoder
	if err := d.Reset(batch); err != nil {
		return nil, nil, 0, err
	}
	var all []Item
	var it Item
	for {
		err := d.Next(&it)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, 0, err
		}
		all = append(all, copyItem(it))
	}
	p := &testPlacement{k: k, buckets: map[int]int{}}
	var grouped [][]Item
	for i := range all {
		it := &all[i]
		router := it.Payload.Router()
		if router == "" {
			router = testFallback(it.Payload.Kind, it.Endpoint, it.Payload.Raw, it.Key)
		}
		if it.Key != "" {
			if keys == nil {
				keys = map[string][]string{}
			}
			keys[router] = append(keys[router], it.Key)
		}
		b := p.bucket(router)
		if b == k {
			continue
		}
		gi, ok := p.buckets[b]
		if !ok {
			gi = len(grouped)
			p.buckets[b] = gi
			grouped = append(grouped, nil)
		}
		if span && it.Key != "" {
			if it.Trace == nil {
				it.Trace = &trace.Wire{Router: router}
			}
			it.Trace.Spans = append(it.Trace.Spans, *routeSpan(gi))
		}
		grouped[gi] = append(grouped[gi], *it)
	}
	for _, g := range grouped {
		groups = append(groups, AppendBatch(nil, g))
	}
	return groups, keys, len(all), nil
}

// splitterSplit is the same split through a Splitter.
func splitterSplit(s *Splitter, batch []byte, k int, span bool) ([][]byte, error) {
	p := &testPlacement{k: k, buckets: map[int]int{}}
	err := s.Split(batch, testFallback, func(router string) int {
		b := p.bucket(router)
		if b == k {
			return -1
		}
		if _, ok := p.buckets[b]; !ok {
			var sp *trace.Span
			if span {
				sp = routeSpan(len(p.buckets))
			}
			p.buckets[b] = s.NewGroup(sp)
		}
		return p.buckets[b]
	})
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(p.buckets))
	for gi := range out {
		out[gi] = bytes.Clone(s.Group(gi).Bytes())
	}
	return out, nil
}

// checkSplit holds one batch to the oracle, through a Splitter that may
// carry state from earlier batches.
func checkSplit(t *testing.T, s *Splitter, batch []byte, k int) {
	t.Helper()
	for _, span := range []bool{false, true} {
		want, wantKeys, wantItems, wantErr := referenceSplit(batch, k, span)
		got, err := splitterSplit(s, batch, k, span)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("span=%v: split error %v, decoder error %v", span, err, wantErr)
		}
		if err != nil {
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("span=%v: %d groups, reference %d", span, len(got), len(want))
		}
		for gi := range want {
			if !bytes.Equal(got[gi], want[gi]) {
				t.Fatalf("span=%v: group %d differs from the reference:\ngot  %q\nwant %q", span, gi, got[gi], want[gi])
			}
		}
		items, keys, err := s.Index(batch, testFallback)
		if err != nil || items != wantItems || !reflect.DeepEqual(keys, wantKeys) {
			t.Fatalf("index: %d items %v (%v), reference %d items %v", items, keys, err, wantItems, wantKeys)
		}
	}
}

// FuzzSplit: for any input the split errors iff the decoder does, and on
// success every group's bytes equal the reference's, with and without
// the route span, and so does the successor's key index.
func FuzzSplit(f *testing.F) {
	for _, seed := range splitSeeds() {
		f.Add(seed, uint8(3))
	}
	f.Add([]byte{}, uint8(1))
	f.Add([]byte("NPB1\x00"), uint8(0))
	var s Splitter // shared: state carried across inputs must not leak
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		checkSplit(t, &s, data, 1+int(k%5))
	})
}

// TestSplitMatchesReference drives the oracle over generated batches of
// every shape the seeds name, through one reused Splitter.
func TestSplitMatchesReference(t *testing.T) {
	var s Splitter
	for _, seed := range splitSeeds() {
		for k := 1; k <= 4; k++ {
			checkSplit(t, &s, seed, k)
		}
	}
	rnd := rand.New(rand.NewSource(26))
	n := 300
	if testing.Short() {
		n = 50
	}
	for i := 0; i < n; i++ {
		checkSplit(t, &s, AppendBatch(nil, randomItems(rnd, 1+rnd.Intn(80))), 1+rnd.Intn(4))
	}
}

// TestSplitForgedCountAllocatesLittle: an envelope may claim one item per
// byte that follows it; the split sizes nothing from the claim.
func TestSplitForgedCountAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations would drown the count")
	}
	const n = 1 << 20
	body := binary.AppendUvarint([]byte(magic), n)
	body = append(body, bytes.Repeat([]byte{0xff}, n)...)
	var s Splitter
	allocs := testing.AllocsPerRun(3, func() {
		if err := s.Split(body, testFallback, func(string) int { return -1 }); err == nil {
			t.Fatal("forged batch split cleanly")
		}
	})
	if allocs > 10 {
		t.Fatalf("a forged count cost %.0f allocations", allocs)
	}
}

// TestSplitSteadyStateAllocs: once warm, splitting a batch whose strings
// the decoder has interned allocates its keys and nothing per row: no
// clones, no regroup slices, no per-group dictionaries.
func TestSplitSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations would drown the count")
	}
	batch := natbenchShaped(rand.New(rand.NewSource(7)))
	var s Splitter
	place := func(router string) int { return s.NewGroup(nil) }
	s.Split(batch, testFallback, place)
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.Split(batch, testFallback, place); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64+2 {
		t.Fatalf("a warm split of 64 keyed items allocated %.0f times, want the 64 keys and no more than 2 others", allocs)
	}
}

// natbenchShaped is one 64-item batch over 64 routers in the benchmark's
// row mix: every kind, anonymous and named flow domains, no traces.
func natbenchShaped(rnd *rand.Rand) []byte {
	items := make([]Item, 64)
	for j := range items {
		router := fmt.Sprintf("rt-%04d", j)
		at := t0().Add(time.Duration(j%60) * time.Minute)
		p := randomPayload(rnd, router, at)
		items[j] = Item{Endpoint: p.Kind.Endpoint(), Key: router + ":nonce:" + strconv.Itoa(j), Payload: p}
	}
	return AppendBatch(nil, items)
}

func randomPayload(rnd *rand.Rand, router string, at time.Time) Payload {
	dev := mac.Addr{0x00, 0x1c, 0xb3, byte(rnd.Intn(256)), byte(rnd.Intn(256)), byte(rnd.Intn(256))}
	switch Kind(1 + rnd.Intn(int(kindMax))) {
	case KindUptime:
		return Payload{Kind: KindUptime, Uptime: dataset.UptimeReport{RouterID: router, ReportedAt: at, Uptime: time.Duration(rnd.Int63n(1e15))}}
	case KindCapacity:
		return Payload{Kind: KindCapacity, Capacity: dataset.CapacityMeasure{RouterID: router, MeasuredAt: at, UpBps: rnd.Float64() * 1e7, DownBps: math.NaN()}}
	case KindDevices:
		p := Payload{Kind: KindDevices, Count: dataset.DeviceCount{RouterID: router, At: at, Wired: rnd.Intn(3), W24: -rnd.Intn(6), W5: 1 << 40}}
		for j := rnd.Intn(4); j > 0; j-- {
			p.Sightings = append(p.Sightings, dataset.DeviceSighting{RouterID: router, At: at, Device: dev, Kind: dataset.ConnKind(rnd.Intn(3))})
		}
		return p
	case KindWiFi:
		return Payload{Kind: KindWiFi, WiFi: []dataset.WiFiScan{
			{RouterID: router, At: at, Band: "2.4GHz", Channel: 1 + rnd.Intn(11), VisibleAPs: rnd.Intn(25), Clients: rnd.Intn(6)},
			{RouterID: router, At: at, Band: "5GHz", Channel: 36, VisibleAPs: rnd.Intn(25), Clients: rnd.Intn(6)}}}
	case KindFlows:
		p := Payload{Kind: KindFlows}
		for j := 0; j < 8; j++ {
			domain := []string{"video.example.com", "dns.example.com", "cdn.example.net"}[rnd.Intn(3)]
			if rnd.Intn(3) == 0 {
				domain = fmt.Sprintf("anon-%016x", rnd.Uint64())
			}
			p.Flows = append(p.Flows, dataset.FlowRecord{RouterID: router, Device: dev, Domain: domain, Proto: "tcp",
				First: at, Last: at.Add(time.Duration(1+rnd.Intn(300)) * time.Second),
				UpBytes: rnd.Int63n(1e6), DownBytes: -rnd.Int63n(1e8), UpPkts: rnd.Int63(), DownPkts: 1, Conns: 1})
		}
		return p
	default:
		p := Payload{Kind: KindThroughput}
		for j := 0; j < 6; j++ {
			p.Throughput = append(p.Throughput, dataset.ThroughputSample{RouterID: router, Minute: at.Add(time.Duration(j) * time.Minute),
				Dir: []string{"up", "down"}[j%2], PeakBps: rnd.Float64() * 1e8, TotalBytes: rnd.Int63n(1e8)})
		}
		return p
	}
}

// randomItems mixes everything the oracle must survive: a few routers
// (so groups share strings), raw and routerless items, traced items with
// open spans and route-span strings of their own, empty rows.
func randomItems(rnd *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for j := range items {
		router := fmt.Sprintf("router-%02d", rnd.Intn(6))
		at := t0().Add(time.Duration(rnd.Intn(1e6)) * time.Second)
		it := Item{Key: router + ":n:" + strconv.Itoa(j)}
		switch rnd.Intn(10) {
		case 0:
			it.Payload = Payload{Kind: KindRaw, Raw: []byte(`{"router_id":"` + router + `"}`)}
			it.Endpoint = []string{"/v1/register", "/v1/uptime", "front.route"}[rnd.Intn(3)]
		case 1:
			it.Payload = Payload{Kind: KindWiFi} // no rows: routed by key
		case 2:
			it.Payload = Payload{Kind: KindDevices, Sightings: []dataset.DeviceSighting{{RouterID: router, At: at}}}
		default:
			it.Payload = randomPayload(rnd, router, at)
		}
		if it.Payload.Kind != KindRaw {
			it.Endpoint = it.Payload.Kind.Endpoint()
		}
		if rnd.Intn(4) == 0 {
			it.Key = ""
		}
		if rnd.Intn(2) == 0 {
			it.Trace = &trace.Wire{Router: []string{router, "", "ok"}[rnd.Intn(3)]}
			for s := rnd.Intn(3); s > 0; s-- {
				sp := trace.Span{Name: "spool.send", Status: []string{"ok", "", "node"}[rnd.Intn(3)], Start: at.Add(-time.Second)}
				if rnd.Intn(2) == 0 {
					sp.End = at
					sp.Attrs = []trace.Attr{{K: "front", V: "front-0"}, {K: "attempt", V: strconv.Itoa(s)}}
				}
				it.Trace.Spans = append(it.Trace.Spans, sp)
			}
		}
		items[j] = it
	}
	return items
}

// splitSeeds are the checked-in FuzzSplit seeds, by name.
func splitSeedsByName() map[string][]byte {
	at := t0()
	uptime := func(router, key string) Item {
		return Item{Endpoint: "/v1/uptime", Key: key, Payload: Payload{Kind: KindUptime,
			Uptime: dataset.UptimeReport{RouterID: router, ReportedAt: at, Uptime: time.Hour}}}
	}
	seeds := map[string][]byte{}

	// Non-canonical varints: an overlong item count, meta and key length.
	// The decoder accepts them; the parent's re-encode canonicalised them.
	canon := AppendBatch(nil, []Item{uptime("rt-a", "rt-a:k:1")})
	nc := append([]byte(magic), 0x81, 0x00) // count 1, overlong
	nc = append(nc, 0x81, 0x00)             // meta 1 (uptime), overlong
	nc = append(nc, 0x88, 0x00)             // key length 8, overlong
	seeds["noncanonical-varints"] = append(nc, canon[len(magic)+1+1+1:]...)

	seeds["raw-items"] = AppendBatch(nil, []Item{
		{Endpoint: "/v1/register", Payload: Payload{Kind: KindRaw, Raw: []byte(`{"router_id":"rt-r","country":"US"}`)}},
		{Endpoint: "/v1/uptime", Key: "rt-r:k:2", Payload: Payload{Kind: KindRaw, Raw: []byte(`{"RouterID":"rt-r","ReportedAt":"1850-01-01T00:00:00Z"}`)}},
		{Endpoint: "/v1/nope", Key: "rt-s:k:3", Payload: Payload{Kind: KindRaw, Raw: []byte(`{}`)}},
		{Endpoint: "/v1/register", Payload: Payload{Kind: KindRaw}},
	})

	// Span times: zero, the sentinel collision on a fresh chain, and one a
	// nanosecond either side of it.
	spanTimes := uptime("rt-t", "rt-t:k:4")
	spanTimes.Trace = &trace.Wire{Router: "rt-t", Spans: []trace.Span{
		{Name: "absurd.clock", Status: "ok", Start: time.Unix(0, math.MinInt64)},
		{Name: "open", Start: time.Unix(0, math.MinInt64+1), End: time.Unix(0, math.MaxInt64)},
		{Name: "zero"},
	}}
	seeds["span-times"] = AppendBatch(nil, []Item{spanTimes, uptime("rt-u", "rt-u:k:5")})

	// Refs whose first use lands in another group: rt-b's item refers to
	// the literals rt-a's item defined, and rt-a to a span string.
	shared := []Item{uptime("rt-a", "rt-a:k:6"), uptime("rt-b", "rt-b:k:7"), uptime("rt-c", "rt-c:k:8"), uptime("rt-a", "rt-a:k:9")}
	shared[0].Trace = &trace.Wire{Router: "rt-b", Spans: []trace.Span{{Name: "front.route", Status: "ok", Start: at, End: at,
		Attrs: []trace.Attr{{K: "node", V: "rt-c"}}}}}
	shared[1].Trace = &trace.Wire{Router: "rt-a"}
	seeds["cross-group-refs"] = AppendBatch(nil, shared)

	seeds["census-empty-count-router"] = AppendBatch(nil, []Item{
		{Endpoint: "/v1/devices", Key: "rt-d:k:10", Payload: Payload{Kind: KindDevices,
			Count:     dataset.DeviceCount{At: at, Wired: 1},
			Sightings: []dataset.DeviceSighting{{RouterID: "rt-d", At: at, Kind: dataset.Wireless5}, {RouterID: "rt-e", At: at}}}},
		{Endpoint: "/v1/devices", Key: "rt-f:k:11", Payload: Payload{Kind: KindDevices}},
	})

	seeds["empty-payloads-by-key"] = AppendBatch(nil, []Item{
		{Endpoint: "/v1/wifi", Key: "rt-w:k:12", Payload: Payload{Kind: KindWiFi}},
		{Endpoint: "/v1/traffic/flows", Key: "rt-x:k:13", Payload: Payload{Kind: KindFlows}},
		{Endpoint: "/v1/traffic/throughput", Key: "nocolon", Payload: Payload{Kind: KindThroughput}},
		{Endpoint: "/v1/uptime", Key: "rt-y:k:14", Payload: Payload{Kind: KindUptime}},
	})

	seeds["natbench-64-routers"] = natbenchShaped(rand.New(rand.NewSource(64)))
	full := AppendBatch(nil, sampleItems())
	seeds["sample-items"] = full
	seeds["trailing-garbage"] = append(bytes.Clone(full), 0xde, 0xad)
	seeds["truncated"] = full[:len(full)*2/3]
	seeds["undefined-meta-bits"] = append(append([]byte(magic), 1, 0x31), canon[len(magic)+2:]...)
	for name, b := range escapeSeeds() {
		seeds[name] = b
	}
	return seeds
}

func splitSeeds() [][]byte {
	var out [][]byte
	for _, b := range splitSeedsByName() {
		out = append(out, b)
	}
	return out
}

// TestWriteSplitCorpus adds the seeds of splitSeedsByName missing from
// testdata/fuzz/FuzzSplit. Run with WIRE_WRITE_CORPUS=1.
func TestWriteSplitCorpus(t *testing.T) {
	if os.Getenv("WIRE_WRITE_CORPUS") == "" {
		t.Skip("set WIRE_WRITE_CORPUS=1 to add missing testdata/fuzz/FuzzSplit seeds")
	}
	writeCorpus(t, "FuzzSplit", splitSeedsByName(), "uint8(3)\n")
}
