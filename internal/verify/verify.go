// Package verify is the correctness harness for the reproduction: it
// drives a small, fully deterministic deployment through the real
// agent → spool → HTTP → collector path and checks cross-layer
// conservation invariants — every byte, frame, and row generated by the
// traffic source must be accounted for by the gateway's export and the
// collector's ingest. Golden snapshots of the resulting datasets pin
// the whole pipeline's behaviour against unintended change.
package verify

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"natpeek/internal/collector"
	"natpeek/internal/dataset"
	"natpeek/internal/gateway"
	"natpeek/internal/heartbeat"
	"natpeek/internal/segment"
	"natpeek/internal/spool"
	"natpeek/internal/wire"
	"natpeek/internal/world"
)

// Config parameterizes one verification run.
type Config struct {
	// Seed drives every random draw (the run is a pure function of it).
	Seed uint64
}

// base anchors the compressed collection windows, inside the paper's
// study period.
var base = time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)

// segmentFlushRows keeps verification runs rotating through many small
// segments so flush boundaries land mid-dataset.
const segmentFlushRows = 2048

// openVerifyStore opens the segment store a run's collector (or one
// cluster node) ingests into.
func openVerifyStore(dir string) (*segment.Store, error) {
	seg, err := segment.Open(segment.Options{Dir: dir, FlushRows: segmentFlushRows})
	if err != nil {
		return nil, fmt.Errorf("verify: segment store: %w", err)
	}
	return seg, nil
}

// reopenMerged closes seg, which seals its tail, and returns the merge of
// a store reopened from dir's segment files alone: what a run ingested,
// as the collector would find it after a restart.
func reopenMerged(seg *segment.Store, dir string) (*dataset.Store, error) {
	if err := seg.Close(); err != nil {
		return nil, fmt.Errorf("verify: segment close: %w", err)
	}
	re, err := segment.Open(segment.Options{Dir: dir, NoCompaction: true})
	if err != nil {
		return nil, fmt.Errorf("verify: segment reopen: %w", err)
	}
	st := re.Merge()
	if err := re.Close(); err != nil {
		return nil, fmt.Errorf("verify: segment reclose: %w", err)
	}
	return st, nil
}

// Result is everything a verification run produced: the world (with its
// generation-side accounting), the collector's ingested store, and any
// privacy violations the upload scanner caught on the wire.
type Result struct {
	Cfg               Config
	World             *world.World
	Ingested          *dataset.Store
	PrivacyViolations []string
}

// worldConfig builds the compressed deployment: 8 homes in 2 countries,
// 5 of them consenting to Traffic collection via the frame-mode capture
// pipeline, with day-scale collection windows. Small enough to run in
// seconds, rich enough to exercise every data set and the US/other
// grouping the analyses rely on.
func worldConfig(cfg Config) world.Config {
	return world.Config{
		Seed:              cfg.Seed,
		Countries:         []string{"US", "IN"},
		RoutersPerCountry: 4,
		TrafficHomes:      3,
		GlobalTraffic:     true,
		FrameTraffic:      true,
		HeartbeatsFrom:    base, HeartbeatsTo: base.Add(48 * time.Hour),
		UptimeFrom: base, UptimeTo: base.Add(48 * time.Hour),
		WiFiFrom: base, WiFiTo: base.Add(24 * time.Hour),
		CapacityFrom: base, CapacityTo: base.Add(36 * time.Hour),
		TrafficFrom: base, TrafficTo: base.Add(48 * time.Hour),
		ProbeTrainLength: 30,
	}
}

// Run executes one golden deployment end to end: a real collector
// server on loopback, one real collector client per home (spooled,
// batched, idempotent uploads), the real gateway agent per home, and
// frame-mode traffic through the real capture pipeline. Heartbeats are
// recorded run-length-encoded directly in the collector's log — they
// are fire-and-forget UDP by design, and a lossy channel has no place
// in a determinism harness.
func Run(cfg Config) (*Result, error) {
	w := world.Build(worldConfig(cfg))

	// The collector ingests into a segment store in a directory of its
	// own, flushing often so the run spans many sealed segments; homes
	// run serially and each client is flushed before the next home
	// starts, and the store's merge preserves that insertion order across
	// flush boundaries — the golden digests don't move.
	dir, err := os.MkdirTemp("", "natpeek-verify-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := openVerifyStore(dir)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	srv, err := collector.NewServer("127.0.0.1:0", "127.0.0.1:0", store)
	if err != nil {
		return nil, fmt.Errorf("verify: collector: %w", err)
	}
	defer srv.Close()

	scanner := newPrivacyScanner(w)

	if err := runHomes(w, scanner, srv.UDPAddr(), srv.HTTPAddr(), store.HeartbeatLog()); err != nil {
		return nil, err
	}
	// The snapshot is taken from the segment files alone. The heartbeat
	// log lives outside them (the server's CSV save persists it), so it
	// carries over from the live store.
	ingested, err := reopenMerged(store, dir)
	if err != nil {
		return nil, err
	}
	ingested.Heartbeats = store.HeartbeatLog()
	return &Result{Cfg: cfg, World: w, Ingested: ingested, PrivacyViolations: scanner.take()}, nil
}

// runHomes runs every home of w through a real collector client of its
// own — spooled, batched, idempotent uploads through scanner to the
// collector or front at udpAddr/httpAddr — flushed and closed before the
// next home starts; heartbeats go straight into hb.
func runHomes(w *world.World, scanner *privacyScanner, udpAddr, httpAddr string, hb *heartbeat.Log) error {
	return w.RunWith(func(h *world.Home) (gateway.Sink, func() error, error) {
		cli, err := collector.NewClient(h.Profile.ID, w.Store.RouterCountry[h.Profile.ID],
			udpAddr, httpAddr,
			collector.WithTransport(scanner),
			collector.WithSpool(spool.Config{Capacity: 1 << 17, MaxBatch: 256}))
		if err != nil {
			return nil, nil, err
		}
		sink := &clientSink{Client: cli, hb: hb}
		closeFn := func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			ferr := cli.Flush(ctx)
			depth := cli.SpoolDepth()
			uerr := cli.Err()
			cerr := cli.Close()
			if ferr != nil {
				return fmt.Errorf("flush: %w", ferr)
			}
			if depth != 0 {
				return fmt.Errorf("%d uploads still spooled after flush", depth)
			}
			if uerr != nil {
				return fmt.Errorf("upload error: %w", uerr)
			}
			return cerr
		}
		return sink, closeFn, nil
	})
}

// clientSink is a collector client that additionally accepts
// run-length-encoded heartbeats, written straight into the collector's
// heartbeat log (bypassing the lossy UDP channel).
type clientSink struct {
	*collector.Client
	hb *heartbeat.Log
}

func (s *clientSink) HeartbeatRun(id string, r heartbeat.Run) { s.hb.RecordRun(id, r) }

// privacyScanner is an http.RoundTripper that inspects every upload
// body for identifiers that must never leave a home un-anonymized: the
// real MAC address of any simulated device, and LAN addresses.
type privacyScanner struct {
	next     http.RoundTripper
	patterns []string

	mu         sync.Mutex
	violations []string
}

func newPrivacyScanner(w *world.World) *privacyScanner {
	s := &privacyScanner{next: http.DefaultTransport}
	for _, h := range w.Homes {
		for _, d := range h.Profile.Devices {
			s.patterns = append(s.patterns, d.HW.String())
		}
	}
	s.patterns = append(s.patterns, "192.168.1.")
	return s
}

func (s *privacyScanner) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		text, err := scanText(req, body)
		if err != nil {
			// A body the scanner cannot render is itself a violation:
			// an opaque upload is an unscanned upload.
			s.record(req.URL.Path, fmt.Sprintf("unscannable body: %v", err))
		}
		low := strings.ToLower(text)
		for _, pat := range s.patterns {
			if strings.Contains(low, pat) {
				s.record(req.URL.Path, fmt.Sprintf("body contains %q", pat))
			}
		}
	}
	return s.next.RoundTrip(req)
}

func (s *privacyScanner) record(path, msg string) {
	s.mu.Lock()
	s.violations = append(s.violations, path+": "+msg)
	s.mu.Unlock()
}

// scanText renders an upload body as the text the scanner greps. JSON
// bodies scan as-is; gzip bodies are inflated first; NPB1 bodies are
// decoded and every item re-rendered as JSON — a MAC that ships as 6
// raw bytes must still be caught as its textual form.
func scanText(req *http.Request, body []byte) (string, error) {
	if req.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		body, err = io.ReadAll(zr)
		if err != nil {
			return "", err
		}
	}
	if !strings.HasPrefix(req.Header.Get("Content-Type"), wire.ContentTypeBinary) {
		return string(body), nil
	}
	var dec wire.Decoder
	if err := dec.Reset(body); err != nil {
		return "", err
	}
	var sb strings.Builder
	var it wire.Item
	for {
		if err := dec.Next(&it); err != nil {
			if err == io.EOF {
				return sb.String(), nil
			}
			return "", err
		}
		jb, err := it.Payload.JSONBody()
		if err != nil {
			return "", err
		}
		sb.WriteString(it.Endpoint)
		sb.WriteByte(' ')
		sb.WriteString(it.Key)
		sb.WriteByte(' ')
		sb.Write(jb)
		if it.Trace != nil {
			tb, err := json.Marshal(it.Trace)
			if err != nil {
				return "", err
			}
			sb.Write(tb)
		}
		sb.WriteByte('\n')
	}
}

func (s *privacyScanner) take() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.violations
}
