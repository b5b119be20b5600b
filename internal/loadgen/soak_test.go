package loadgen

import (
	"context"
	"testing"
	"time"

	"natpeek/internal/collector"
)

// soakConfig is the deterministic short soak: 200 routers, a compressed
// ramp, several cycles back-to-back, a tenth of the uploads posted
// directly.
func soakConfig(baseURL string) Config {
	return Config{
		BaseURL:          baseURL,
		Routers:          200,
		Ramp:             200 * time.Millisecond,
		Cycles:           3,
		PayloadsPerCycle: 3,
		Duty:             0.9, // some homes skip cycles, as deployed fleets do
		BatchSize:        32,
		DirectFraction:   0.1,
		Workers:          8,
		Seed:             42,
	}
}

func startCollector(t *testing.T) (*collector.Server, string) {
	t.Helper()
	srv, err := collector.NewServer("127.0.0.1:0", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, "http://" + srv.HTTPAddr()
}

// checkRun asserts the accounting invariants every healthy soak must
// hold: zero lost rows (stats delta == generated), nothing rejected,
// both server paths taken, and the merged store actually contains what
// stats claims.
func checkRun(t *testing.T, srv *collector.Server, rep *Report) {
	t.Helper()
	if rep.Lost != 0 {
		t.Fatalf("lost %d rows (generated %d, ingested %d)",
			rep.Lost, rep.Generated.Total(), rep.StatsDelta.Total())
	}
	if rep.Rejected != 0 {
		t.Fatalf("%d uploads rejected — generator and server disagree on payload shape", rep.Rejected)
	}
	if rep.Uploads == 0 || rep.Generated.Total() == 0 {
		t.Fatal("soak generated no traffic")
	}
	if rep.Direct == 0 || rep.Batches == 0 {
		t.Fatalf("soak posted %d direct uploads and %d batches, want both paths", rep.Direct, rep.Batches)
	}
	st := srv.Store()
	got := int64(len(st.Uptime) + len(st.Capacity) + len(st.Counts) + len(st.Sightings) +
		len(st.WiFi) + len(st.Flows) + len(st.Throughput))
	if got != rep.Generated.Total() {
		t.Fatalf("merged store has %d rows, generated %d", got, rep.Generated.Total())
	}
	if rc := srv.Sharded().RowCounts(); rc.Routers != rep.Routers {
		t.Fatalf("registered routers = %d, want %d", rc.Routers, rep.Routers)
	}
}

// TestSoakZeroRowLoss drives ~200 synthetic routers against a live
// in-process collector as fast as the loop allows and asserts strict
// row conservation via idempotency-key accounting.
func TestSoakZeroRowLoss(t *testing.T) {
	srv, baseURL := startCollector(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	rep, err := Run(ctx, soakConfig(baseURL))
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, srv, rep)
}

// TestSoakZeroRowLossUnderFaults is the lossy case: 30% of uploads fail
// (half rejected before apply, half applied with the ack dropped — PR
// 2's fault-injection knobs). At-least-once delivery plus server dedupe
// must still conserve every row, and the run must visibly have retried.
func TestSoakZeroRowLossUnderFaults(t *testing.T) {
	srv, baseURL := startCollector(t)
	srv.SetFaultInjection(0.3, 7)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	cfg := soakConfig(baseURL)
	cfg.Routers = 100 // faults slow convergence; keep the run short
	rep, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, srv, rep)
	if rep.Retries == 0 {
		t.Error("fault injection at 30% produced zero retries")
	}
	if rep.Duplicates == 0 {
		t.Error("drop-ack faults produced zero duplicate acks — dedupe path untested")
	}
}

// TestSoakZeroRowLossUnderThrottle squeezes the same fleet through a
// tiny admission window: most uploads bounce off 429 at least once, and
// Retry-After-honoring retries must still conserve every row.
func TestSoakZeroRowLossUnderThrottle(t *testing.T) {
	srv, baseURL := startCollector(t)
	srv.SetMaxInflight(2)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	cfg := soakConfig(baseURL)
	cfg.Routers = 50
	cfg.Workers = 16 // deliberately exceed the admission window
	rep, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, srv, rep)
	t.Logf("throttled %d times across %d requests", rep.Throttled, rep.Requests)
}

// TestRunDeterministicRows pins generation determinism: two runs with
// the same seed generate identical row counts (the keys differ by
// nonce, so both runs' rows land).
func TestRunDeterministicRows(t *testing.T) {
	srv, baseURL := startCollector(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cfg := soakConfig(baseURL)
	cfg.Routers = 20
	rep1, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.skipRegister = true // fleet already registered
	rep2, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Lost != 0 {
		t.Fatalf("second run lost %d rows", rep2.Lost)
	}
	if rep1.Generated != rep2.Generated {
		t.Fatalf("same seed, different rows:\n run1 %+v\n run2 %+v", rep1.Generated, rep2.Generated)
	}
	_ = srv
}

// TestSoakWireModes runs the conservation soak once per explicit wire
// configuration: forced JSON (the legacy server path must stay covered
// now that the default is binary) and gzip-compressed binary. Every
// mode must conserve rows exactly.
func TestSoakWireModes(t *testing.T) {
	for _, tc := range []struct {
		name string
		wire string
		gzip bool
	}{
		{"json", "json", false},
		{"binary-gzip", "binary", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, baseURL := startCollector(t)
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()

			cfg := soakConfig(baseURL)
			cfg.Routers = 50
			cfg.Wire = tc.wire
			cfg.Gzip = tc.gzip
			rep, err := Run(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, srv, rep)
		})
	}
}

// TestRunRejectsUnknownWire pins the config validation.
func TestRunRejectsUnknownWire(t *testing.T) {
	_, baseURL := startCollector(t)
	cfg := soakConfig(baseURL)
	cfg.Wire = "msgpack"
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("unknown wire format accepted")
	}
}
