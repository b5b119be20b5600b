package collector

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"natpeek/internal/dataset"
)

// TestSaturatedIngestReturns429 pins the admission-control contract:
// when the in-flight limit is reached, further data-plane uploads are
// answered 429 with a Retry-After header immediately — the server sheds
// load onto the clients' retrying spools instead of parking request
// goroutines (and their bodies) until capacity frees up.
func TestSaturatedIngestReturns429(t *testing.T) {
	srv, _ := startPair(t)
	srv.SetMaxInflight(1)

	// Occupy the single slot with an upload whose body never finishes
	// arriving: the handler blocks in ReadAll holding the semaphore.
	pr, pw := io.Pipe()
	blocked := make(chan error, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, "http://"+srv.HTTPAddr()+"/v1/uptime", pr)
		if err != nil {
			blocked <- err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		blocked <- err
	}()
	pw.Write([]byte(`{"RouterID":`)) // partial body: the handler blocks inside ReadAll
	// Wait for the slot-holder to be admitted: an upload that beat it to
	// the slot would be applied, not throttled.
	waitFor(t, func() bool { return len(srv.admit.Load().(chan struct{})) == 1 })

	// A further upload must be rejected, not queued.
	body, _ := json.Marshal(dataset.UptimeReport{RouterID: "router-1", ReportedAt: t0, Uptime: time.Hour})
	resp, err := http.Post("http://"+srv.HTTPAddr()+"/v1/uptime", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if got := srv.stats().Uptime; got != 0 {
		t.Fatalf("uptime rows = %d, want 0 (throttled uploads must not apply)", got)
	}

	// Finish the blocked upload and confirm the slot frees: the same POST
	// that was throttled now lands.
	pw.Close() // ReadAll returns (truncated JSON decodes to an error; slot released either way)
	<-blocked
	ok := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Post("http://"+srv.HTTPAddr()+"/v1/uptime", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		status := resp.StatusCode
		resp.Body.Close()
		if status == http.StatusNoContent {
			ok = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !ok {
		t.Fatal("slot never freed after blocked upload finished")
	}

	// The throttle is observable.
	key := `natpeek_collector_throttled_total{endpoint="/v1/uptime"}`
	if m := scrape(t, srv.HTTPAddr()); m[key] <= 0 {
		t.Fatalf("throttle counter = %v, want > 0", m[key])
	}
}

// TestControlPlaneExemptFromAdmission: registration and stats must work
// even when the data plane is saturated — operators debug through them.
func TestControlPlaneExemptFromAdmission(t *testing.T) {
	srv, _ := startPair(t)
	srv.SetMaxInflight(1)

	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequest(http.MethodPost, "http://"+srv.HTTPAddr()+"/v1/uptime", pr)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	pw.Write([]byte(`{`))
	defer func() { pw.Close(); <-done }()

	// Wait until the data plane actually throttles, so the slot is held.
	body, _ := json.Marshal(dataset.UptimeReport{RouterID: "router-1", ReportedAt: t0, Uptime: time.Hour})
	waitFor(t, func() bool {
		resp, err := http.Post("http://"+srv.HTTPAddr()+"/v1/uptime", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusTooManyRequests
	})

	reg, _ := json.Marshal(RegisterRequest{RouterID: "router-adm", Country: "US"})
	resp, err := http.Post("http://"+srv.HTTPAddr()+"/v1/register", "application/json", bytes.NewReader(reg))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("register during saturation: status %d, want 204", resp.StatusCode)
	}
	resp, err = http.Get("http://" + srv.HTTPAddr() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats during saturation: status %d, want 200", resp.StatusCode)
	}
}
