package collector

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/wire"
)

// TestBatchApplyAllocBudget pins the NPB1 hot path's shape: what a
// request allocates grows by the same small constant per typed item
// whether it carries 8 or 256 — the item's key string and its share of
// the store's and the dedupe index's amortized growth. An apply step
// that re-binds Payload.AppendTo per item (one closure each), boxes the
// item, or clones it costs at least one more and fails this. The race
// detector's own allocations would drown the count, so it runs without.
func TestBatchApplyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	srv, err := NewServer("127.0.0.1:0", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	handler := srv.handleUpload(BatchEndpoint)
	const runs = 40
	perRequest := func(items int) float64 {
		// Fresh keys per request (a replay would take the dedupe branch),
		// encoded before the measured region.
		bodies := make([][]byte, runs+1)
		for r := range bodies {
			batch := make([]wire.Item, items)
			for i := range batch {
				batch[i] = wire.Item{Endpoint: "/v1/uptime", Key: fmt.Sprintf("alloc-%d:%d:%d", items, r, i),
					Payload: wire.Payload{Kind: wire.KindUptime, Uptime: dataset.UptimeReport{
						RouterID: fmt.Sprintf("alloc-router-%d", i%8), ReportedAt: t0.Add(time.Duration(i) * time.Second), Uptime: time.Hour}}}
			}
			bodies[r] = wire.AppendBatch(nil, batch)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			req := httptest.NewRequest(http.MethodPost, BatchEndpoint, bytes.NewReader(bodies[next]))
			req.Header.Set("Content-Type", wire.ContentTypeBinary)
			next++
			rec := httptest.NewRecorder()
			handler(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		})
	}
	small, large := perRequest(8), perRequest(256)
	perItem := (large - small) / (256 - 8)
	t.Logf("allocs per request: %.0f at 8 items, %.0f at 256; %.2f per item", small, large, perItem)
	if perItem > 1.75 {
		t.Fatalf("%.2f allocations per typed NPB1 item (%.0f at 8 items, %.0f at 256), want ≤ 1.75", perItem, small, large)
	}
}
