// Fault injection for the upload pipeline. FaultTransport wraps an
// http.RoundTripper with configurable error and blackout injection so
// tests (and demo binaries) can prove that the spool loses nothing
// through flaky links; the matching server-side injector lives in
// the collector (SetFaultInjection / bismark-server -fail-rate).
package spool

import (
	"fmt"
	"net/http"
	"sync"

	"natpeek/internal/rng"
)

// ErrInjected is the error type returned by FaultTransport failures, so
// tests can tell injected faults from real ones.
type ErrInjected struct{ URL string }

func (e *ErrInjected) Error() string { return "spool: injected transport fault: " + e.URL }

// FaultTransport is an http.RoundTripper that randomly fails requests
// before they reach the network. Configure it, then install it as an
// http.Client's Transport (collector.WithTransport does this for upload
// clients). Safe for concurrent use.
type FaultTransport struct {
	// Base performs real requests (nil means http.DefaultTransport).
	Base http.RoundTripper

	mu       sync.Mutex
	rng      *rng.Stream
	failRate float64
	blackout bool
	injected int
}

// NewFaultTransport returns a transport failing the given fraction of
// requests, deterministically driven by seed.
func NewFaultTransport(base http.RoundTripper, failRate float64, seed uint64) *FaultTransport {
	return &FaultTransport{Base: base, failRate: failRate, rng: rng.New(seed)}
}

// SetFailRate updates the failure probability.
func (t *FaultTransport) SetFailRate(p float64) {
	t.mu.Lock()
	t.failRate = p
	t.mu.Unlock()
}

// SetBlackout switches total-outage mode: every request fails until it is
// turned off (a multi-minute access-link outage, §3.3).
func (t *FaultTransport) SetBlackout(on bool) {
	t.mu.Lock()
	t.blackout = on
	t.mu.Unlock()
}

// Injected returns how many requests have been failed by injection.
func (t *FaultTransport) Injected() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.injected
}

// RoundTrip implements http.RoundTripper.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	fail := t.blackout || (t.failRate > 0 && t.rng.Bool(t.failRate))
	if fail {
		t.injected++
	}
	t.mu.Unlock()
	if fail {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, &ErrInjected{URL: req.URL.String()}
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}

// String describes the current fault configuration (for logs).
func (t *FaultTransport) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf("fault(rate=%.2f blackout=%v injected=%d)",
		t.failRate, t.blackout, t.injected)
}
