// Package natpeek reproduces "Peeking Behind the NAT: An Empirical Study
// of Home Networks" (Grover et al., IMC 2013): a BISmark-style gateway
// measurement platform, a synthetic world standing in for the paper's
// 126-home/19-country deployment, and the analysis pipeline that
// regenerates every table and figure of the evaluation.
//
// Quick start:
//
//	study := natpeek.NewStudy(natpeek.StudyConfig{Seed: 1, Scale: 0.2})
//	if err := study.Run(); err != nil { ... }
//	study.WriteReports(os.Stdout)
//
// The heavy lifting lives in internal packages; this package is the
// surface a downstream user needs: building/running studies, loading and
// saving datasets, and regenerating exhibits.
package natpeek

import (
	"fmt"
	"io"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/figures"
	"natpeek/internal/segment"
	"natpeek/internal/world"
)

// StudyConfig configures a reproduction run. The zero value runs the
// paper's full deployment (126 homes, full Table 2 windows) from seed 0.
type StudyConfig struct {
	// Seed drives every random draw; a study is a pure function of it.
	Seed uint64
	// Scale multiplies the 126-router roster (use <1 for quick runs).
	Scale float64
	// TrafficHomes is the number of consenting US homes (default 25).
	TrafficHomes int
	// Short caps each collection window (0 = the paper's windows).
	Short time.Duration
}

// Study is a reproduction run: a deployment, its collected datasets, and
// the analysis that regenerates the paper's exhibits.
type Study struct {
	Cfg     StudyConfig
	World   *world.World
	Store   *dataset.Store
	Windows figures.Windows
}

// Report is one regenerated table or figure.
type Report = figures.Report

// NewStudy builds a deployment per cfg; call Run to collect data.
func NewStudy(cfg StudyConfig) *Study {
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

// OpenStudy loads previously saved datasets (see Study.Save); the
// analysis windows default to the paper's.
func OpenStudy(dir string) (*Study, error) {
	st, err := dataset.Load(dir)
	if err != nil {
		return nil, err
	}
	return &Study{Store: st, Windows: figures.DefaultWindows()}, nil
}

// OpenSegmentStudy loads a study from a columnar segment directory
// written by a segment-backed collector (bismark-server -segments). The
// store is opened, merged into one analysis view, and closed again; a
// flush of any recovered-but-unsealed state is a side effect of the
// close. It fails on a directory a running collector holds open.
func OpenSegmentStudy(dir string) (*Study, error) {
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

// Run executes the collection over the synthetic deployment.
func (s *Study) Run() error { return s.World.Run() }

// Save persists the study's datasets as CSV.
func (s *Study) Save(dir string) error { return s.Store.Save(dir) }

// Reports regenerates every table and figure.
func (s *Study) Reports() []*Report { return figures.All(s.Store, s.Windows) }

// Report regenerates one exhibit by ID ("Figure 3", "Table 5", …).
func (s *Study) Report(id string) (*Report, error) {
	for _, r := range s.Reports() {
		if r.ID == id {
			return r, nil
		}
	}
	return nil, fmt.Errorf("natpeek: unknown exhibit %q", id)
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
