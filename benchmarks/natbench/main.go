// Command natbench is the repository's benchmark: it starts the collector
// pipeline in-process (real loopback HTTP, real segment files), drives
// four workloads through it, checks the outputs, and prints every metric
// by name with its unit. See ../README.md.
//
//	natbench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result object
//	natbench run     [-seed N] [-seconds S] [-out FILE]       all workloads untraced, then traced
//	natbench repeat  -n K [-seed N] [-seconds S] [-out FILE]  the untraced set K times; medians and quartiles
//	natbench compare A.json B.json
//
// Every form takes -benchmark PATH (default BENCHMARK.json, which is where
// run.sh's working directory puts it): the catalogue of workloads, metric
// names, units and bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return cmdSet(ctx, args[1:], false)
		case "repeat":
			return cmdSet(ctx, args[1:], true)
		case "compare":
			return cmdCompare(args[1:])
		}
	}
	return cmdOne(ctx, args)
}

// cmdOne is the contract's entry point: one workload, one run.
func cmdOne(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("natbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "one of: ingest-cluster, ingest-single, figures-live, scan-cold")
	seed := fs.Uint64("seed", 1, "every input is generated from this")
	seconds := fs.Int("seconds", defaultSeconds, "length of the timed region")
	trace := fs.Int("trace", 0, "1: traced run, per-layer metrics; 0: untraced, end-to-end metrics")
	result := fs.String("result", "", "also write the full run record (JSON) here")
	bench := catalogueFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload == "" || fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: natbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   (or: natbench run|repeat|compare …)")
		return 2
	}
	cat, err := readCatalogue(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "natbench:", err)
		return 2
	}
	scratch, err := os.MkdirTemp("", "natbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "natbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	res, err := execute(ctx, cat, runConfig{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, scratch: scratch, sizes: fullSizes(*seconds)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "natbench:", err)
		return 1
	}
	printRun(os.Stdout, cat, res)
	if *result != "" {
		if err := writeJSON(*result, childRecord{*res, res.spans}); err != nil {
			fmt.Fprintln(os.Stderr, "natbench:", err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(contractLine(cat, res)); err != nil {
		fmt.Fprintln(os.Stderr, "natbench:", err)
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// contractLine is the result object: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one.
func contractLine(cat *catalogue, res *runResult) contractResult {
	src, specs := res.EndToEnd, cat.EndToEnd
	if res.Traced {
		src, specs = res.PerLayer, cat.PerLayer
	}
	out := contractResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		out.Metrics[s.Name] = metricValue{src[s.Name], s.Unit}
	}
	return out
}

// printRun lists every metric the run produced, by name, with its unit.
func printRun(w *os.File, cat *catalogue, res *runResult) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%d %s: attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Seed, res.Seconds, mode, res.Attempted, res.Failed, res.Correct)
	for _, grp := range []struct {
		title string
		m     map[string]float64
		specs []metricSpec
	}{
		{"end-to-end", res.EndToEnd, cat.EndToEnd},
		{"native", res.Native, nativeSpecs},
		{"per-layer", res.PerLayer, cat.PerLayer},
		{"diag", res.Diag, nil},
	} {
		units := unitsOf(grp.specs)
		names := make([]string, 0, len(grp.m))
		for n := range grp.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-10s %-34s %16.4f %s\n", grp.title, n, grp.m[n], units[n])
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
	for _, p := range res.Invalid {
		fmt.Fprintln(w, "INVALID:", p)
	}
}

// catalogueFlag registers -benchmark on fs.
func catalogueFlag(fs *flag.FlagSet) *string {
	return fs.String("benchmark", "BENCHMARK.json", "the benchmark's catalogue: workloads, metric names, units and bounds")
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
