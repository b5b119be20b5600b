package main

// `natbench run` and `natbench repeat`: the whole workload set, each run
// in a child process of its own (so peak RSS and the heap are that run's
// alone), collected into one result file with a header that says what
// was run where.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

const defaultSeconds = 20

// header is what every result file records about its own making.
type header struct {
	Commit     string             `json:"commit"`
	Seed       uint64             `json:"seed"`
	Sets       int                `json:"sets"`
	Seconds    int                `json:"seconds"`
	Go         string             `json:"go"`
	OS         string             `json:"os"`
	Arch       string             `json:"arch"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Clients    int                `json:"clients"`
	FlushRows  int                `json:"flush_rows"`
	Rates      map[string]float64 `json:"frozen_rows_per_s"`
	Phases     map[string]string  `json:"phases"`
	Caveats    []string           `json:"caveats"`
}

func newHeader(seed uint64, sets, seconds int) header {
	sz := fullSizes(seconds)
	return header{
		Commit: commit(), Seed: seed, Sets: sets, Seconds: seconds,
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients(),
		FlushRows: flushRows,
		Rates: map[string]float64{
			"ingest-cluster.open": openRateCluster, "ingest-cluster.closed_work": closedRateCluster * closedShareCluster,
			"ingest-single.open": openRateSingle, "ingest-single.closed_work": closedRateSingle * closedShareSingle,
			"figures-live.open": openRateFigures,
		},
		Phases: map[string]string{
			"ingest-cluster": fmt.Sprintf("warm-up %d batches; %d rounds of an open-loop window (%ds in all, at the frozen rate) and a closed-loop burst (closed_work × %d rows in all), a flush and a compaction pass after each", sz.warmupBatches, rounds, seconds/2, seconds),
			"ingest-single":  fmt.Sprintf("as ingest-cluster, with %.0f%% of uploads as direct JSON and %.0f%% of batches redelivered", 100*directShare, 100*redeliverShare),
			"figures-live":   fmt.Sprintf("preload %d rows and seal; %ds of open-loop trickle beside a back-to-back GET /figures reader", sz.preloadRows, seconds),
			"scan-cold":      fmt.Sprintf("study cut to a fixed shape, %d sealed segments; reopen/fold/render/merge/figures loop for %ds", studySegments, seconds),
		},
		Caveats: []string{
			"driver, front, nodes and stores share one process and its CPUs; HTTP is loopback, not a real link",
			"segment files are read back through the page cache; no run sees a cold disk",
			"tracing inside the system stays at its production default (5% tail sampling) in every run",
			fmt.Sprintf("durations and rates are scaled to the machine speed at which the speed kernel takes %.1f ms; diag raw.<name> is what the clock read", speedRefMs),
		},
	}
}

// commit asks git for HEAD; a checkout that is not a repository says so.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// resultFile is what run and repeat write and compare reads.
type resultFile struct {
	Header  header       `json:"header"`
	Runs    []*runResult `json:"runs"`
	Invalid []string     `json:"invalid,omitempty"` // any reason compare should refuse this file
}

// childRecord is how a child run hands its record, spans included, to
// the run/repeat parent.
type childRecord struct {
	runResult
	Spans []span `json:"spans,omitempty"`
}

// cmdSet implements run (one set, untraced then traced) and repeat (the
// untraced set k times, seeds seed..seed+k-1).
func cmdSet(ctx context.Context, args []string, repeat bool) int {
	name := "run"
	if repeat {
		name = "repeat"
	}
	fs := flag.NewFlagSet("natbench "+name, flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "seed of the first set")
	seconds := fs.Int("seconds", defaultSeconds, "length of each run's timed region")
	out := fs.String("out", "natbench.json", "result file; a traced run's spans go to <out>.trace.json")
	bench := catalogueFlag(fs)
	n := 1
	if repeat {
		fs.IntVar(&n, "n", 5, "how many sets")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if n < 1 || *seconds < 1 || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	cat, err := readCatalogue(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "natbench:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "natbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "natbench-set-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "natbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	file := resultFile{Header: newHeader(*seed, n, *seconds)}
	var spans []span
	failed := false
	child := func(workload string, seed uint64, traced int) bool {
		rec := filepath.Join(tmp, "run.json")
		cmd := exec.CommandContext(ctx, self, "--workload", workload, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(traced), "--result", rec, "--benchmark", *bench)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "natbench: %s seed %d: %v\n", workload, seed, err)
			file.Invalid = append(file.Invalid, fmt.Sprintf("%s seed %d did not finish", workload, seed))
			return false
		}
		var r childRecord
		b, err := os.ReadFile(rec)
		if err == nil {
			err = json.Unmarshal(b, &r)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "natbench:", err)
			return false
		}
		file.Runs = append(file.Runs, &r.runResult)
		spans = append(spans, r.Spans...)
		for _, why := range r.Invalid {
			file.Invalid = append(file.Invalid, fmt.Sprintf("%s seed %d: %s", workload, seed, why))
		}
		return r.Correct
	}
	for set := 0; set < n; set++ {
		for _, w := range cat.workloadNames() {
			if !child(w, *seed+uint64(set), 0) {
				failed = true
			}
		}
	}
	if !repeat {
		for _, w := range cat.workloadNames() {
			if !child(w, *seed, 1) {
				failed = true
			}
		}
		if err := writeTrace(*out+".trace.json", spans); err != nil {
			fmt.Fprintln(os.Stderr, "natbench:", err)
			return 1
		}
	}
	if err := writeJSON(*out, file); err != nil {
		fmt.Fprintln(os.Stderr, "natbench:", err)
		return 1
	}
	printSummary(cat, &file)
	if failed {
		fmt.Fprintln(os.Stderr, "natbench: at least one run failed an oracle or did not finish")
		return 1
	}
	return 0
}

// series collects, per workload and metric (end-to-end and native names
// never collide), the values of the untraced runs in file order.
func (f *resultFile) series() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Traced {
			continue
		}
		m := out[r.Workload]
		if m == nil {
			m = map[string][]float64{}
			out[r.Workload] = m
		}
		for k, v := range r.EndToEnd {
			m[k] = append(m[k], v)
		}
		for k, v := range r.Native {
			m[k] = append(m[k], v)
		}
	}
	return out
}

// failedShare is failed / attempted over a workload's untraced runs.
func (f *resultFile) failedShare(workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	if attempted == 0 {
		return math.NaN()
	}
	return float64(failed) / float64(attempted)
}

// printSummary prints median and quartiles per workload and end-to-end
// metric, and how the run-to-run spread sits against the metric's bound.
func printSummary(cat *catalogue, f *resultFile) {
	h := f.Header
	fmt.Printf("\n== natbench summary: commit %s, seed %d, %d set(s) × %ds, %s %s/%s, nproc %d, GOMAXPROCS %d, FlushRows %d ==\n",
		h.Commit, h.Seed, h.Sets, h.Seconds, h.Go, h.OS, h.Arch, h.NProc, h.GOMAXPROCS, h.FlushRows)
	all := f.series()
	for _, w := range cat.workloadNames() {
		m := all[w]
		if m == nil {
			continue
		}
		fmt.Printf("%s  (failed_ops_share %.6f)\n", w, f.failedShare(w))
		for _, s := range cat.gated() {
			v := m[s.Name]
			if len(v) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			line := fmt.Sprintf("  %-26s median %14.4f %-7s n=%d", s.Name, q2, s.Unit, len(v))
			if len(v) >= 4 {
				sp := spread(v)
				line += fmt.Sprintf("  q1 %.4f q3 %.4f  spread %.1f%% of median (bound %.0f%%)", q1, q3, 100*sp, 100*s.Bound)
				if sp > s.Bound {
					line += "  WIDER THAN BOUND"
				}
			}
			fmt.Println(line)
		}
	}
	// What tracing cost, measured the blunt way: the traced run's rate
	// against the untraced run's of the same seed. One pair sits well
	// inside run-to-run noise; bench.trace_overhead_share is the
	// resolved figure.
	for _, t := range f.Runs {
		if !t.Traced {
			continue
		}
		for _, u := range f.Runs {
			if !u.Traced && u.Workload == t.Workload && u.Seed == t.Seed {
				tr, ur := t.EndToEnd["rows_per_s"], u.EndToEnd["rows_per_s"]
				fmt.Printf("%s traced vs untraced rows/s: %.1f vs %.1f (%+.1f%% of untraced)\n", t.Workload, tr, ur, 100*(tr/ur-1))
				break
			}
		}
	}
	for _, why := range f.Invalid {
		fmt.Println("INVALID:", why)
	}
}
