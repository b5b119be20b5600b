package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"natpeek/internal/collector"
	"natpeek/internal/dataset"
	"natpeek/internal/trace"
	"natpeek/internal/wire"
)

// The split oracle, cluster side: the front's routing, a successor's
// journal index and a failover replay used to decode every item, clone
// it, regroup and re-encode. That path lives on here as the reference
// the streaming split must reproduce exactly.

// decodeItems drains an upload body through the collector's item source
// into owned items, cloned out of decoder scratch and the pooled body.
func decodeItems(endpoint, contentType, key string, body []byte) ([]wire.Item, error) {
	src, err := collector.NewItemSource(endpoint, contentType, key, body)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	items := make([]wire.Item, 0, min(src.Len(), transferBatchItems))
	var it wire.Item
	for {
		switch err := src.Next(&it); err {
		case nil:
			items = append(items, cloneItem(&it))
		case io.EOF:
			return items, nil
		default:
			return nil, err
		}
	}
}

// cloneItem deep-copies an item out of a decoder's scratch storage.
func cloneItem(it *wire.Item) wire.Item {
	cp := *it
	cp.Payload.Raw = append([]byte(nil), it.Payload.Raw...)
	cp.Payload.Sightings = append([]dataset.DeviceSighting(nil), it.Payload.Sightings...)
	cp.Payload.WiFi = append([]dataset.WiFiScan(nil), it.Payload.WiFi...)
	cp.Payload.Flows = append([]dataset.FlowRecord(nil), it.Payload.Flows...)
	cp.Payload.Throughput = append([]dataset.ThroughputSample(nil), it.Payload.Throughput...)
	if it.Trace != nil {
		w := trace.Wire{TraceID: it.Trace.TraceID, Router: it.Trace.Router,
			Spans: append([]trace.Span(nil), it.Trace.Spans...)}
		cp.Trace = &w
	}
	return cp
}

// routerOfItem is the routing rule on a decoded item.
func routerOfItem(it *wire.Item) string {
	if r := it.Payload.Router(); r != "" {
		return r
	}
	return routeFallback(it.Payload.Kind, it.Endpoint, it.Payload.Raw, it.Key)
}

// refGroup is one placement group as the reference builds it.
type refGroup struct {
	placement []string
	items     []wire.Item
}

// referenceRoute is the front's route before the streaming split: group the
// decoded items by replica set, append the front.route span to each
// keyed item when tracing, and encode each group.
func referenceRoute(items []wire.Item, ring *Ring, replication int, frontID string, tracing bool, start, now time.Time) ([][]string, [][]byte) {
	byKey := map[string]*refGroup{}
	var groups []*refGroup
	for i := range items {
		it := &items[i]
		router := routerOfItem(it)
		placement := ring.Lookup(router, replication)
		gk := strings.Join(placement, "\x00")
		g := byKey[gk]
		if g == nil {
			g = &refGroup{placement: placement}
			byKey[gk] = g
			groups = append(groups, g)
		}
		if tracing && it.Key != "" {
			if it.Trace == nil {
				it.Trace = &trace.Wire{Router: router}
			}
			it.Trace.Spans = append(it.Trace.Spans, trace.Span{
				Name: "front.route", Start: start, End: now, Status: trace.StatusOK,
				Attrs: []trace.Attr{
					{K: "front", V: frontID},
					{K: "node", V: placement[0]},
					{K: "replicas", V: fmt.Sprint(len(placement) - 1)},
				},
			})
		}
		g.items = append(g.items, *it)
	}
	var placements [][]string
	var batches [][]byte
	for _, g := range groups {
		placements = append(placements, g.placement)
		batches = append(batches, wire.AppendBatch(nil, g.items))
	}
	return placements, batches
}

// indexFrame is a successor's journal index of a replicate frame.
func indexFrame(batch []byte) (int, map[string][]string, error) {
	sp := splitters.Get().(*wire.Splitter)
	defer splitters.Put(sp)
	return sp.Index(batch, routeFallback)
}

// referenceIndex is the successor's journal index before the splitter.
func referenceIndex(batch []byte) (int, map[string][]string, error) {
	items, err := decodeItems(collector.BatchEndpoint, wire.ContentTypeBinary, "", batch)
	if err != nil {
		return 0, nil, err
	}
	var keys map[string][]string
	for i := range items {
		if items[i].Key != "" {
			if keys == nil {
				keys = make(map[string][]string)
			}
			router := routerOfItem(&items[i])
			keys[router] = append(keys[router], items[i].Key)
		}
	}
	return len(items), keys, nil
}

// oracleBatches are the uploads the oracle runs on: the front's
// equivalence list (registration, every typed kind, a sightings-only
// census, a redelivered key, an out-of-range time, a malformed body, an
// unknown endpoint), traced and routerless items, and generated
// many-router batches.
func oracleBatches() [][]byte {
	var eq []wire.Item
	for _, it := range equivalenceItems() {
		eq = append(eq, wire.Item{Endpoint: it.Endpoint, Key: it.Key, Payload: wire.PayloadFromJSON(it.Endpoint, it.Body)})
	}
	traced := uptimeItem("rt-traced", 1)
	traced.Trace = &trace.Wire{Router: "rt-traced", Spans: []trace.Span{
		{Name: "spool.send", Status: trace.StatusOK, Start: time.Unix(0, 1), Attrs: []trace.Attr{{K: "node", V: "node-1"}}}}}
	routerless := wire.Item{Endpoint: "/v1/wifi", Key: "rt-keyonly:k:1", Payload: wire.Payload{Kind: wire.KindWiFi}}
	unkeyed := uptimeItem("rt-unkeyed", 2)
	unkeyed.Key = ""
	out := [][]byte{
		wire.AppendBatch(nil, eq),
		wire.AppendBatch(nil, []wire.Item{traced, routerless, unkeyed, uptimeItem("rt-traced", 3)}),
		wire.AppendBatch(nil, nil),
	}
	rnd := rand.New(rand.NewSource(26))
	for b := 0; b < 8; b++ {
		var items []wire.Item
		for i := 0; i < 64; i++ {
			it := uptimeItem(fmt.Sprintf("rt-%03d", rnd.Intn(200)), b*64+i)
			if i%5 == 0 {
				it.Payload = wire.Payload{Kind: wire.KindFlows, Flows: []dataset.FlowRecord{{RouterID: it.Payload.Uptime.RouterID,
					Domain: fmt.Sprintf("d%d.example.com", rnd.Intn(4)), Proto: "tcp",
					First: it.Payload.Uptime.ReportedAt, Last: it.Payload.Uptime.ReportedAt, UpBytes: rnd.Int63n(1e6)}}}
				it.Endpoint = it.Payload.Kind.Endpoint()
			}
			items = append(items, it)
		}
		out = append(out, wire.AppendBatch(nil, items))
	}
	return out
}

// oracleFront is a front whose membership holds n fake collector nodes.
func oracleFront(t testing.TB, n, replication int) *Front {
	t.Helper()
	f, err := NewFront(FrontConfig{ID: "front-oracle", UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0",
		CtrlAddr: "127.0.0.1:0", Replication: replication})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	var members []Member
	for i := 0; i < n; i++ {
		members = append(members, Member{ID: fmt.Sprintf("node-%d", i), Role: RoleNode, Incarnation: 1, Beat: 1})
	}
	f.ms.merge(members)
	return f
}

// TestFrontSplitMatchesParent: for every oracle upload, at replication 1
// to 3 and with tracing on and off, the front's groups are the parent's
// groups — same replica sets, same order, byte-identical batches — and a
// successor's index of a batch is the parent's.
func TestFrontSplitMatchesParent(t *testing.T) {
	defer trace.SetEnabled(trace.Enabled())
	var sp wire.Splitter
	for _, replication := range []int{1, 2, 3} {
		f := oracleFront(t, 3, replication)
		ring := f.ms.ring()
		for bi, batch := range oracleBatches() {
			for _, tracing := range []bool{false, true} {
				trace.SetEnabled(tracing)
				start, now := time.Unix(1_700_000_000, 5), time.Unix(1_700_000_000, 9)
				items, err := decodeItems(collector.BatchEndpoint, wire.ContentTypeBinary, "", batch)
				if err != nil {
					t.Fatal(err)
				}
				wantSets, want := referenceRoute(items, ring, replication, f.cfg.ID, tracing, start, now)
				placements, fail, err := f.route(&sp, batch, start, now)
				if err != nil || fail != nil {
					t.Fatalf("batch %d: route: %v %v", bi, err, fail)
				}
				if len(placements) != len(want) {
					t.Fatalf("batch %d, R=%d, tracing %v: %d groups, parent %d", bi, replication, tracing, len(placements), len(want))
				}
				for i, placement := range placements {
					if !reflect.DeepEqual(placement, wantSets[i]) || !bytes.Equal(sp.Group(i).Bytes(), want[i]) {
						t.Fatalf("batch %d, R=%d, tracing %v: group %d (%v) differs from the parent's (%v)",
							bi, replication, tracing, i, placement, wantSets[i])
					}
				}
			}
			n, keys, err := indexFrame(batch)
			wn, wkeys, werr := referenceIndex(batch)
			if err != nil || werr != nil || n != wn || !reflect.DeepEqual(keys, wkeys) {
				t.Fatalf("batch %d: index %d %v (%v), parent %d %v (%v)", bi, n, keys, err, wn, wkeys, werr)
			}
		}
	}
}

// TestFrontSplitRefusals: a batch that does not decode is refused before
// the empty ring is judged, which is judged before any fence — and an
// empty batch on an empty ring is still the 503 it always was.
func TestFrontSplitRefusals(t *testing.T) {
	var sp wire.Splitter
	empty := oracleFront(t, 0, 2)
	good := wire.AppendBatch(nil, []wire.Item{uptimeItem("rt-a", 1)})
	bad := append(bytes.Clone(good), 0xde)
	if _, _, err := empty.route(&sp, bad, time.Now(), time.Now()); err == nil {
		t.Fatal("a bad batch on an empty ring was not a decode error")
	}
	for _, batch := range [][]byte{good, wire.AppendBatch(nil, nil)} {
		if _, fail, err := empty.route(&sp, batch, time.Now(), time.Now()); err != nil || fail == nil || fail.status != 503 {
			t.Fatalf("empty ring: %v %+v, want 503", err, fail)
		}
	}
	f := oracleFront(t, 2, 2)
	f.ms.proposeEpoch([]string{"node-0"}) // moves every node-1 shard
	var moved string
	for i := 0; moved == ""; i++ {
		if r := fmt.Sprintf("rt-%d", i); f.ms.ring().Owner(r) == "node-1" {
			moved = r
		}
	}
	fenced := wire.AppendBatch(nil, []wire.Item{uptimeItem(moved, 1)})
	if _, _, err := f.route(&sp, append(bytes.Clone(fenced), 0), time.Now(), time.Now()); err == nil {
		t.Fatal("a bad fenced batch was not a decode error")
	}
	if _, fail, err := f.route(&sp, fenced, time.Now(), time.Now()); err != nil || fail == nil || fail.status != 429 ||
		!strings.Contains(fail.msg, moved) {
		t.Fatalf("fenced batch: %v %+v, want 429 naming %s", err, fail, moved)
	}
}

// TestUploadBatchEncodesJSONOnce: a JSON envelope and a direct post reach
// the split as the NPB1 batch their decoded items encode to.
func TestUploadBatchEncodesJSONOnce(t *testing.T) {
	items := equivalenceItems()
	body, err := json.Marshal(items)
	if err != nil {
		t.Fatal(err)
	}
	got, err := uploadBatch(collector.BatchEndpoint, "application/json", "", body)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := decodeItems(collector.BatchEndpoint, "application/json", "", body)
	if err != nil || !bytes.Equal(got, wire.AppendBatch(nil, decoded)) {
		t.Fatalf("JSON envelope: %v, or bytes differ from its items' encoding", err)
	}
	direct, err := uploadBatch("/v1/uptime", "application/json", items[1].Key, items[1].Body)
	if err != nil {
		t.Fatal(err)
	}
	one, _ := decodeItems("/v1/uptime", "application/json", items[1].Key, items[1].Body)
	if !bytes.Equal(direct, wire.AppendBatch(nil, one)) {
		t.Fatal("direct post: bytes differ from its item's encoding")
	}
	npb1 := wire.AppendBatch(nil, decoded)
	if b, err := uploadBatch(collector.BatchEndpoint, wire.ContentTypeBinary+"; v=1", "", npb1); err != nil || &b[0] != &npb1[0] {
		t.Fatal("an NPB1 body was copied or re-encoded")
	}
}
