package main

// `natbench compare A.json B.json`: A is the base, B the candidate. One
// row per workload and metric (BENCHMARK.json's end-to-end list, then
// the native ones), each with both medians, the change as a share of A's
// median, the bound, and a verdict.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge compares candidate values b against base values a for a metric
// whose regression bound is bound (a share of a's median). Where either
// side's run-to-run spread is wider than the bound, the medians cannot
// resolve a change of that size: the verdict is unresolved, unless the
// candidate is worse by more than that spread too.
func judge(a, b []float64, better string, bound float64) (ma, mb, delta float64, v verdict) {
	ma, mb = median(a), median(b)
	delta = (mb - ma) / math.Abs(ma)
	worse := delta
	if better == "higher" {
		worse = -delta
	}
	noise := 0.0
	if len(a) >= 4 {
		noise = spread(a)
	}
	if len(b) >= 4 {
		noise = max(noise, spread(b))
	}
	switch {
	case worse > max(bound, noise):
		v = verdictRegressed
	case noise > bound:
		v = verdictUnresolved
	default:
		v = verdictOK
	}
	return ma, mb, delta, v
}

func cmdCompare(args []string) int {
	fs := flag.NewFlagSet("natbench compare", flag.ContinueOnError)
	bench := catalogueFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: natbench compare [-benchmark BENCHMARK.json] <base.json> <candidate.json>")
		return 2
	}
	cat, err := readCatalogue(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "natbench compare:", err)
		return 2
	}
	var files [2]resultFile
	for i, path := range fs.Args() {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "natbench compare:", err)
			return 2
		}
	}
	return compare(os.Stdout, cat, &files[0], &files[1], fs.Arg(0), fs.Arg(1))
}

// compare prints the table and returns the exit code: 0 all ok or
// unresolved, 1 any regression or rise in failed_ops_share, 2 refused.
func compare(w io.Writer, cat *catalogue, a, b *resultFile, aName, bName string) int {
	refused := false
	sa, sb := a.series(), b.series()
	// A file that lacks a workload was not made by run or repeat; judging
	// what is left would pass a set that never ran the rest.
	for _, wl := range cat.workloadNames() {
		for i, s := range []map[string]map[string][]float64{sa, sb} {
			if s[wl] == nil {
				fmt.Fprintf(w, "refused: %s has no run of %s\n", []string{aName, bName}[i], wl)
				refused = true
			}
		}
	}
	for i, f := range []*resultFile{a, b} {
		for _, why := range f.Invalid {
			fmt.Fprintf(w, "refused: %s is invalid: %s\n", []string{aName, bName}[i], why)
			refused = true
		}
	}
	if a.Header.NProc != b.Header.NProc || a.Header.GOMAXPROCS != b.Header.GOMAXPROCS {
		fmt.Fprintf(w, "refused: nproc/GOMAXPROCS differ: %d/%d vs %d/%d\n",
			a.Header.NProc, a.Header.GOMAXPROCS, b.Header.NProc, b.Header.GOMAXPROCS)
		refused = true
	}
	if a.Header.Seconds != b.Header.Seconds || a.Header.FlushRows != b.Header.FlushRows {
		fmt.Fprintf(w, "refused: run length or FlushRows differ: %ds/%d vs %ds/%d\n",
			a.Header.Seconds, a.Header.FlushRows, b.Header.Seconds, b.Header.FlushRows)
		refused = true
	}
	if refused {
		return 2
	}

	fmt.Fprintf(w, "base      %s  (commit %s, %d set(s), seed %d)\n", aName, a.Header.Commit, a.Header.Sets, a.Header.Seed)
	fmt.Fprintf(w, "candidate %s  (commit %s, %d set(s), seed %d)\n", bName, b.Header.Commit, b.Header.Sets, b.Header.Seed)
	fmt.Fprintf(w, "%-15s %-26s %14s %14s %-8s %22s %7s  %s\n", "workload", "metric", "base median", "cand median", "unit", "change (of base)", "bound", "verdict")
	bad := false
	for _, wl := range cat.workloadNames() {
		for _, m := range cat.gated() {
			va, vb := sa[wl][m.Name], sb[wl][m.Name]
			if len(va) == 0 && len(vb) == 0 {
				continue // a native metric this workload does not have
			}
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-15s %-26s is in one file only  %s\n", wl, m.Name, verdictRegressed)
				bad = true
				continue
			}
			ma, mb, delta, v := judge(va, vb, m.Better, m.Bound)
			if v == verdictRegressed {
				bad = true
			}
			fmt.Fprintf(w, "%-15s %-26s %14.4f %14.4f %-8s %+9.2f%% of %-9.4g %6.0f%%  %s\n",
				wl, m.Name, ma, mb, m.Unit, 100*delta, ma, 100*m.Bound, v)
		}
		fa, fb := a.failedShare(wl), b.failedShare(wl)
		v := verdictOK
		if fb > fa {
			v, bad = verdictRegressed, true
		}
		fmt.Fprintf(w, "%-15s %-26s %14.6f %14.6f %-8s %+9.6f abs           any rise  %s\n", wl, "failed_ops_share", fa, fb, "share", fb-fa, v)
	}
	if bad {
		return 1
	}
	return 0
}
