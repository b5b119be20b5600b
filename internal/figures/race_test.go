//go:build race

package figures

import (
	"sync"
	"sync/atomic"
	"testing"
)

const raceEnabled = true

// TestConcurrentPagesBesideSeals: two readers render pages back to back
// while units are appended and sealed, so seals fold into the base while
// pages summarize its homes, and each page takes home summaries and a
// roster that the other reader's page made. Under the race detector a
// summary or roster written after it was shared fails the run; every
// page is also the batch exhibits over the units it holds.
func TestConcurrentPagesBesideSeals(t *testing.T) {
	seg := openSeg(t)
	d, err := NewDashboard(seg, DefaultWindows())
	if err != nil {
		t.Fatal(err)
	}
	const units = 48
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pages := 0; !stop.Load() || pages == 0; pages++ {
				st, ro, v, _ := d.snapshot()
				n := pageUnits(st, v)
				if n < 0 {
					t.Errorf("reader %d: page is no prefix of the stream", r)
					return
				}
				if err := checkPage(st, ro, v, n); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}()
	}
	for u := 0; u < units; u++ {
		appendUnit(seg, u)
		if u%4 == 3 {
			if err := seg.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if got, want := renderString(d.Render()), renderString(All(seg.Merge(), DefaultWindows())); got != want {
		t.Fatalf("the last page:\n%s\nthe batch exhibits over the store:\n%s", got, want)
	}
}
