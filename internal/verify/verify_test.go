package verify

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the golden snapshots under testdata/golden")

// seed1 is the seed-1 run: made once per test process, shared by every
// test that needs it.
var seed1 struct {
	once sync.Once
	r    *Result
	err  error
}

func runSeed1(t *testing.T) *Result {
	t.Helper()
	seed1.once.Do(func() { seed1.r, seed1.err = Run(Config{Seed: 1}) })
	if seed1.err != nil {
		t.Fatalf("verify.Run(seed=1): %v", seed1.err)
	}
	return seed1.r
}

// seed3 is the seed-3 run and its snapshot, taken before any test
// tampers with the run.
var seed3 struct {
	once sync.Once
	r    *Result
	snap []byte
	err  error
}

func runSeed3(t *testing.T) (*Result, []byte) {
	t.Helper()
	seed3.once.Do(func() {
		if seed3.r, seed3.err = Run(Config{Seed: 3}); seed3.err == nil {
			seed3.snap = BuildSnapshot(seed3.r).Encode()
		}
	})
	if seed3.err != nil {
		t.Fatalf("verify.Run(seed=3): %v", seed3.err)
	}
	return seed3.r, seed3.snap
}

// goldenSeed1 loads the canonical single-node golden snapshot.
func goldenSeed1(t *testing.T) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "run-seed1.json"))
	if err != nil {
		t.Fatalf("no golden snapshot (generate with TestGoldenRun -update): %v", err)
	}
	return want
}

// TestGoldenRun drives the full deployment through the real collector
// and compares the normalized snapshot against the checked-in golden.
// After an intended behaviour change, regenerate with
//
//	go test ./internal/verify -run TestGoldenRun -update
//
// and review the golden diff like any other code change.
func TestGoldenRun(t *testing.T) {
	r := runSeed1(t)
	if fails := CheckAll(r, nil); len(fails) > 0 {
		for _, f := range fails {
			t.Errorf("invariant %s", f)
		}
	}
	got := BuildSnapshot(r).Encode()

	path := filepath.Join("testdata", "golden", "run-seed1.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d bytes)", path, len(got))
		return
	}
	if want := goldenSeed1(t); !bytes.Equal(got, want) {
		t.Errorf("snapshot drifted from %s.\nIf the change is intended, re-run with -update and review the diff.\n%s",
			path, snapshotDiff(want, got))
	}
}

// TestGoldenDeterminism pins that the snapshot depends on the run: a
// different seed gives a different one (so the snapshot is not a
// function of the config alone). Its other half — the same seed twice
// gives byte-identical snapshots — is what every golden asserts: each
// seed-1 run (TestGoldenRun and TestGoldenSegmentBacked share one; the
// 3-node, 5-node, join and drain cluster goldens are four more) must
// match one checked-in snapshot byte for byte.
func TestGoldenDeterminism(t *testing.T) {
	a := BuildSnapshot(runSeed1(t)).Encode()
	if _, c := runSeed3(t); bytes.Equal(a, c) {
		t.Error("seeds 1 and 3 produced identical snapshots; the snapshot is not sensitive to the run")
	}
}

// TestInvariantsCatchTampering guards the checker itself: a run whose
// accounting is corrupted after the fact must fail conservation.
func TestInvariantsCatchTampering(t *testing.T) {
	r, _ := runSeed3(t)
	if fails := CheckAll(r, nil); len(fails) > 0 {
		t.Fatalf("clean run violates invariants: %v", fails)
	}
	r.World.Acct.FrameUpBytes += 1000 // a thousand bytes vanish between layers
	if fails := CheckAll(r, nil); len(fails) == 0 {
		t.Error("byte-conservation tampering went undetected")
	}
	r.World.Acct.FrameUpBytes -= 1000
	r.Ingested.Flows = r.Ingested.Flows[:len(r.Ingested.Flows)-1] // drop an ingested row
	if fails := CheckAll(r, nil); len(fails) == 0 {
		t.Error("dropped ingest row went undetected")
	}
}

// snapshotDiff renders the first diverging lines of two snapshots (a
// full diff of multi-KB JSON helps nobody in test output).
func snapshotDiff(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) && i < len(g); i++ {
		if !bytes.Equal(w[i], g[i]) {
			return fmt.Sprintf("first divergence at line %d:\n- %s\n+ %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(w), len(g))
}

// TestPrivacyScannerSeesThroughBinary guards the scanner itself: a MAC
// address that ships inside an NPB1 body as 6 raw bytes — invisible to
// a textual grep of the wire bytes — must still be caught once the
// scanner decodes the batch.
func TestPrivacyScannerSeesThroughBinary(t *testing.T) {
	hw := mac.MustParse("00:1c:b3:09:0a:0b")
	body := wire.AppendBatch(nil, []wire.Item{{
		Endpoint: "/v1/devices", Key: "leak-1",
		Payload: wire.Payload{Kind: wire.KindDevices,
			Count: dataset.DeviceCount{RouterID: "r", At: time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)},
			Sightings: []dataset.DeviceSighting{{RouterID: "r",
				At: time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC), Device: hw}}},
	}})
	if bytes.Contains(bytes.ToLower(body), []byte(hw.String())) {
		t.Fatal("test premise broken: the MAC is textual on the binary wire")
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	text, err := scanText(req, body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.ToLower(text), hw.String()) {
		t.Fatalf("decoded scan text misses the MAC:\n%s", text)
	}
}
