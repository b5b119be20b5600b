package webui

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2013, 4, 5, 12, 0, 0, 0, time.UTC)

func staticUsage() UsageSnapshot {
	return UsageSnapshot{
		GeneratedAt: t0,
		Devices: []DeviceRow{
			{Device: "a4:b1:97:11:22:33", Bytes: 900, Share: 0.9},
			{Device: "00:24:54:44:55:66", Bytes: 100, Share: 0.1},
		},
		TopDomains: []DomainRow{{Domain: "netflix.com", Bytes: 800}},
		CapBytes:   1000, UsedBytes: 700, RemainingBytes: 300, ProjectedBytes: 950,
	}
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Usage == nil {
		cfg.Usage = staticUsage
	}
	s, err := New("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestDashboardRenders(t *testing.T) {
	s := startServer(t, Config{RouterID: "gw-1", GetWhitelist: func() []string { return []string{"x.example"} }})
	resp, err := http.Get("http://" + s.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{"gw-1", "netflix.com", "90.0%", "Data cap", "1 user-added"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, body)
		}
	}
}

func TestUsageJSON(t *testing.T) {
	s := startServer(t, Config{})
	resp, err := http.Get("http://" + s.Addr() + "/api/usage")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap UsageSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.CapBytes != 1000 || len(snap.Devices) != 2 {
		t.Fatalf("snapshot %+v", snap)
	}
}

func TestWhitelistEndpoints(t *testing.T) {
	wl := NewWhitelist()
	s := startServer(t, Config{
		GetWhitelist:    wl.Snapshot,
		AddWhitelist:    wl.Add,
		RemoveWhitelist: wl.Remove,
	})
	base := "http://" + s.Addr() + "/api/whitelist"

	// Add.
	resp, err := http.Post(base, "application/json", strings.NewReader(`{"domain":"myclinic.example"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("add status %d", resp.StatusCode)
	}
	// Get.
	resp, err = http.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if len(got) != 1 || got[0] != "myclinic.example" {
		t.Fatalf("whitelist %v", got)
	}
	// Remove.
	req, _ := http.NewRequest(http.MethodDelete, base+"?domain=myclinic.example", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(wl.Snapshot()) != 0 {
		t.Fatal("remove failed")
	}
}

func TestWhitelistRejectsBadDomains(t *testing.T) {
	wl := NewWhitelist()
	s := startServer(t, Config{AddWhitelist: wl.Add})
	// The last case is the trailing-garbage regression: the old
	// json.NewDecoder(r.Body).Decode stopped after the first JSON value
	// and accepted whatever followed it.
	for _, body := range []string{`{"domain":""}`, `{"domain":"nodots"}`, `{"domain":"bad domain.example"}`, `not-json`,
		`{"domain":"ok.example"}{"domain":"smuggled.example"}`} {
		resp, err := http.Post("http://"+s.Addr()+"/api/whitelist", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d", body, resp.StatusCode)
		}
	}
}

func TestWhitelistDisabled(t *testing.T) {
	s := startServer(t, Config{})
	resp, err := http.Get("http://" + s.Addr() + "/api/whitelist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestWhitelistAlreadyPublicIsNoop(t *testing.T) {
	wl := NewWhitelist()
	if err := wl.Add("www.google.com"); err != nil {
		t.Fatal(err)
	}
	if len(wl.Snapshot()) != 0 {
		t.Fatal("public domain stored as user entry")
	}
}
