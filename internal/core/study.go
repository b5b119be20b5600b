// Package core orchestrates the paper's primary contribution: a
// measurement *study* of home networks run from gateway vantage points.
// A Study builds the deployment (synthetic world or loaded datasets),
// runs the collection, and regenerates every table and figure of the
// evaluation.
package core

import (
	"fmt"
	"io"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/figures"
	"natpeek/internal/segment"
	"natpeek/internal/world"
)

// Config configures a study run.
type Config struct {
	// Seed makes the whole study reproducible.
	Seed uint64
	// Scale shrinks the deployment (1.0 = the paper's 126 homes).
	Scale float64
	// TrafficHomes is the consenting-home count (paper: 25).
	TrafficHomes int
	// Short trims every collection window to at most Short (0 = the
	// paper's full windows). Useful for quick experiments.
	Short time.Duration
}

// Study is one reproduction run.
type Study struct {
	Cfg     Config
	World   *world.World
	Store   *dataset.Store
	Windows figures.Windows
}

// New prepares a study (deployment built, nothing run yet).
func New(cfg Config) *Study {
	wcfg := world.Config{
		Seed:         cfg.Seed,
		Scale:        cfg.Scale,
		TrafficHomes: cfg.TrafficHomes,
	}
	win := figures.DefaultWindows()
	if cfg.Short > 0 {
		clamp := func(from, to time.Time) (time.Time, time.Time) {
			if to.Sub(from) > cfg.Short {
				return from, from.Add(cfg.Short)
			}
			return from, to
		}
		wcfg.HeartbeatsFrom, wcfg.HeartbeatsTo = clamp(dataset.HeartbeatsFrom, dataset.HeartbeatsTo)
		wcfg.UptimeFrom, wcfg.UptimeTo = clamp(dataset.UptimeFrom, dataset.UptimeTo)
		wcfg.WiFiFrom, wcfg.WiFiTo = clamp(dataset.WiFiFrom, dataset.WiFiTo)
		wcfg.CapacityFrom, wcfg.CapacityTo = clamp(dataset.CapacityFrom, dataset.CapacityTo)
		wcfg.TrafficFrom, wcfg.TrafficTo = clamp(dataset.TrafficFrom, dataset.TrafficTo)
		win.Availability.From = wcfg.HeartbeatsFrom
		win.Availability.To = wcfg.HeartbeatsTo
	}
	w := world.Build(wcfg)
	return &Study{Cfg: cfg, World: w, Store: w.Store, Windows: win}
}

// Run executes the collection over the synthetic deployment.
func (s *Study) Run() error { return s.World.Run() }

// Open loads a study from datasets previously written with Save; the
// analysis windows default to the paper's.
func Open(dir string) (*Study, error) {
	st, err := dataset.Load(dir)
	if err != nil {
		return nil, err
	}
	return &Study{Store: st, Windows: figures.DefaultWindows()}, nil
}

// OpenSegments loads a study from a columnar segment directory written
// by a segment-backed collector (bismark-server -segments). The store
// is opened, merged into one analysis view, and closed again; a flush
// of any recovered-but-unsealed state is a side effect of the close.
// It fails on a directory a running collector holds open.
func OpenSegments(dir string) (*Study, error) {
	seg, err := segment.Open(segment.Options{Dir: dir, NoCompaction: true})
	if err != nil {
		return nil, err
	}
	st := seg.Merge()
	if err := seg.Close(); err != nil {
		return nil, err
	}
	return &Study{Store: st, Windows: figures.DefaultWindows()}, nil
}

// Save persists the study's datasets as CSV.
func (s *Study) Save(dir string) error { return s.Store.Save(dir) }

// Reports regenerates every table and figure.
func (s *Study) Reports() []*figures.Report { return figures.All(s.Store, s.Windows) }

// Report regenerates one exhibit by ID ("Figure 3", "Table 5", …).
func (s *Study) Report(id string) (*figures.Report, error) {
	for _, r := range s.Reports() {
		if r.ID == id {
			return r, nil
		}
	}
	return nil, fmt.Errorf("core: unknown exhibit %q", id)
}

// WriteReports renders every exhibit to w.
func (s *Study) WriteReports(w io.Writer) error {
	for _, r := range s.Reports() {
		if _, err := io.WriteString(w, r.String()+"\n"); err != nil {
			return err
		}
	}
	return nil
}
