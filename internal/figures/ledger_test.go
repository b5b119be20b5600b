package figures

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"natpeek/internal/dataset"
	"natpeek/internal/rng"
	"natpeek/internal/scalestore"
	"natpeek/internal/segment"
	"natpeek/internal/world"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/exhibits.sha256 from the current exhibits")

const ledgerFile = "testdata/exhibits.sha256"

// ledgerInputs are the stores the exhibit ledger is kept over: a
// simulated study, loadgen mix (many routers, long anonymised tails, no
// heartbeats), and the 10k-router scale store.
var ledgerInputs = []struct {
	name  string
	build func() *dataset.Store
}{
	{"study-seed1-scale0.5", func() *dataset.Store {
		w := world.Build(world.Config{Seed: 1, Scale: 0.5})
		if err := w.Run(); err != nil {
			panic(err)
		}
		return w.Store
	}},
	{"loadgen-mix-20k", func() *dataset.Store {
		st := dataset.NewStore()
		loadgenMix(st, rng.New(1).Child("ledger"), 0, 20_000, 512, 0.65)
		return st
	}},
	{"scale-10k", scalestore.Build},
}

// ledgerLine is one exhibit's entry: its printed text's hash, the input
// and the exhibit.
func ledgerLine(input string, r *Report) string {
	return fmt.Sprintf("%x  %s: %s", sha256.Sum256([]byte(r.String())), input, r.ID)
}

// ledgerPage renders st as a dashboard page: its rows sealed in four
// chunks, a fifth left in the live tail, its heartbeats in the store's
// log.
func ledgerPage(t *testing.T, st *dataset.Store, w Windows) []*Report {
	t.Helper()
	seg, err := segment.Open(segment.Options{Dir: t.TempDir(), FlushRows: 1 << 30, NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	hb := seg.HeartbeatLog()
	for _, id := range st.Heartbeats.Routers() {
		for _, r := range st.Heartbeats.Runs(id) {
			hb.RecordRun(id, r)
		}
	}
	d, err := NewDashboard(seg, w)
	if err != nil {
		t.Fatal(err)
	}
	feedChunks(seg, chunkStores(st, 5), func() {
		if err := seg.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if s := d.Stats(); s.SealedChunks != 4 {
		t.Fatalf("dashboard folded %d sealed chunks, want 4", s.SealedChunks)
	}
	return d.Render()
}

// TestExhibitLedger is the behaviour contract as a file: every exhibit
// of every ledger input, printed, hashes to its line in
// testdata/exhibits.sha256 — through figures.All and through a dashboard
// page with an unsealed tail alike. A change that moves an exhibit names
// it here; one that means to rewrites the file with -update and says
// which lines moved and why.
func TestExhibitLedger(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("the ledger inputs are too heavy for -short and -race; check-figures runs it without")
	}
	w := DefaultWindows()
	var got []string
	var diverged []string
	for _, in := range ledgerInputs {
		st := in.build()
		batch := All(st, w)
		page := ledgerPage(t, st, w)
		if len(page) != len(batch) {
			t.Fatalf("%s: the page has %d exhibits, All %d", in.name, len(page), len(batch))
		}
		for i, r := range batch {
			line := ledgerLine(in.name, r)
			got = append(got, line)
			if p := ledgerLine(in.name, page[i]); p != line {
				diverged = append(diverged, fmt.Sprintf("%s: %s", in.name, r.ID))
			}
		}
	}
	if len(diverged) > 0 {
		t.Errorf("the dashboard page and figures.All differ on: %s", strings.Join(diverged, "; "))
	}
	if *updateLedger {
		if err := os.WriteFile(ledgerFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(ledgerFile)
	if err != nil {
		t.Fatalf("%v (generate it with go test -run TestExhibitLedger -update)", err)
	}
	want := map[string]string{} // "input: exhibit" → line
	var order []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		_, key, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", ledgerFile, line)
		}
		want[key] = line
		order = append(order, key)
	}
	var moved, missing []string
	seen := map[string]bool{}
	for _, line := range got {
		_, key, _ := strings.Cut(line, "  ")
		seen[key] = true
		switch w, ok := want[key]; {
		case !ok:
			missing = append(missing, key+" (not in the ledger)")
		case w != line:
			moved = append(moved, key)
		}
	}
	for _, key := range order {
		if !seen[key] {
			missing = append(missing, key+" (no longer rendered)")
		}
	}
	if len(moved)+len(missing) > 0 {
		t.Fatalf("exhibits differ from %s:\n  %s\nrerun with -update if the change is meant, and say why in CHANGES.md",
			ledgerFile, strings.Join(append(moved, missing...), "\n  "))
	}
}
