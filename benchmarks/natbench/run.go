package main

// One run of one workload: repeated set-up, the timed region, the
// oracles, and — in a traced run — the span shares and the layer probes.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// workload is the life cycle every workload implements.
type workload interface {
	// prepare generates the inputs from the seed, once. It is natbench's
	// own work, not the system's, and is not part of setup_s.
	prepare() error
	// setup starts the system over a fresh directory and brings it to
	// where the timed region begins: fleet registered, connections and
	// caches warm, history loaded. It is run sizes.setupRepeats times,
	// with a teardown between; only the last survives.
	setup(ctx context.Context) error
	// run executes the timed region and the oracles.
	run(ctx context.Context, tr *tracer) (*outcome, error)
	// teardown stops the system and removes its directory.
	teardown()
}

// outcome is what a workload's timed region produced.
type outcome struct {
	attempted, failed int // operations plus oracle checks
	oraclesRan        bool
	problems          []string // oracle failures, in words
	invalid           []string // reasons the numbers should not be compared
	rows              int      // rows the headline path handled (for per-row process metrics)

	// The operations behind op_ontime_share: their latencies, the limit
	// each had to meet, and how many failed outright (and so missed it).
	opMs      []float64
	opLimitMs float64
	opFailed  int

	endToEnd map[string]float64 // the names in BENCHMARK.json
	native   map[string]float64 // the workload's own, more specific names
	diag     map[string]float64 // run diagnostics (generator lateness, retries…)
}

func newOutcome() *outcome {
	return &outcome{endToEnd: map[string]float64{}, native: map[string]float64{}, diag: map[string]float64{}}
}

// timing books a latency series' sample count and, when it has enough
// samples for one, its tail (see tailPercentile) next to the medians the
// workload reports.
func (o *outcome) timing(name string, t timing) {
	o.diag[name+"_n"] = float64(t.N)
	if t.TailQ > 0 {
		o.diag[name+"_tail_q"] = t.TailQ
		o.diag[name+"_tail_ms"] = t.Tail
	}
}

// check books one oracle check.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	scratch  string // parent of every directory the run creates
	sizes
}

func newWorkload(cfg runConfig) (workload, error) {
	switch cfg.workload {
	case "ingest-cluster":
		return &ingest{cfg: cfg, cluster: true}, nil
	case "ingest-single":
		return &ingest{cfg: cfg}, nil
	case "figures-live":
		return &figuresLive{cfg: cfg}, nil
	case "scan-cold":
		return &scanCold{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// runResult is one run's full record.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   int      `json:"seconds"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Invalid   []string `json:"invalid,omitempty"`

	EndToEnd map[string]float64 `json:"end_to_end,omitempty"`
	Native   map[string]float64 `json:"native,omitempty"`
	Diag     map[string]float64 `json:"diag,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`

	spans []span
}

// execute performs one run. cat supplies the metrics' units.
func execute(ctx context.Context, cat *catalogue, cfg runConfig) (*runResult, error) {
	res := &runResult{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("%s inputs: %w", cfg.workload, err)
	}
	defer w.teardown()
	setupSpeed := inBackground(sampleSpeed)
	setupsS, err := setUp(ctx, w, cfg.setupRepeats)
	setupKernelMs := median(setupSpeed())
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}

	var tr *tracer
	if cfg.traced {
		tr = newTracer(cfg.workload)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, busy0 := cpuClasses()
	rss, speed := inBackground(sampleRSS), inBackground(sampleSpeed)
	steal0 := stolenCPU()
	t0 := time.Now()
	out, err := w.run(ctx, tr)
	wall := time.Since(t0)
	stolen := (stolenCPU() - steal0).Seconds() / (wall.Seconds() * float64(runtime.NumCPU()))
	rssMB, kernelMs := rss(), median(speed())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	runtime.ReadMemStats(&m1)
	gc1, busy1 := cpuClasses()

	out.endToEnd["setup_s"] = median(setupsS)
	if len(rssMB) == 0 {
		return nil, fmt.Errorf("resident set: /proc/self/statm could not be read")
	}
	out.endToEnd["rss_mb"] = median(rssMB)
	// Durations and rates are reported at the reference machine speed;
	// what the clock read stays beside them as raw.<name>.
	units := unitsOf(cat.gated())
	for _, m := range []map[string]float64{out.endToEnd, out.native} {
		for name, v := range m {
			f := speedRefMs / kernelMs
			if name == "setup_s" {
				f = speedRefMs / setupKernelMs
			}
			switch speedSense(units[name]) {
			case 1:
				m[name], out.diag["raw."+name] = v*f, v
			case -1:
				m[name], out.diag["raw."+name] = v/f, v
			}
		}
	}
	// An operation is on time if it met its limit at the reference speed.
	out.endToEnd["op_ontime_share"] = onTimeShare(out.opMs, out.opLimitMs*kernelMs/speedRefMs, out.opFailed)
	out.diag["speed_kernel_ms"] = kernelMs
	out.diag["setup_speed_kernel_ms"] = setupKernelMs
	if out.diag["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	if !out.oraclesRan {
		out.invalid = append(out.invalid, "an oracle could not run")
	}
	out.diag["stolen_cpu_share"] = stolen
	if stolen > stolenLimit {
		out.invalid = append(out.invalid, fmt.Sprintf("the hypervisor ran something else on %.0f%% of the CPUs' time", 100*stolen))
	}
	res.Attempted, res.Failed = out.attempted, out.failed
	res.Correct = out.failed == 0 && out.oraclesRan
	res.Problems, res.Invalid = out.problems, out.invalid
	res.EndToEnd, res.Native, res.Diag = out.endToEnd, out.native, out.diag

	if cfg.traced {
		res.spans = tr.finished()
		res.PerLayer = map[string]float64{}
		spanShares(res.spans, res.PerLayer)
		res.PerLayer["proc.gc_cpu_share"] = (gc1 - gc0) / max(busy1-busy0, 1e-9)
		res.PerLayer["proc.alloc_mb_per_krow"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / (float64(max(out.rows, 1)) / 1e3)
		probes, err := runProbes(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		for k, v := range probes {
			res.PerLayer[k] = v
		}
		res.PerLayer["bench.trace_overhead_share"] = float64(len(res.spans)) * probes["bench.span_cost_ns"] / float64(wall.Nanoseconds())
		delete(res.PerLayer, "bench.span_cost_ns")
	}
	return res, nil
}

// setUp sets w up n times, tearing down all but the last, and returns
// how long each took in seconds.
func setUp(ctx context.Context, w workload, n int) ([]float64, error) {
	var took []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			w.teardown()
			// Return the discarded set-up's memory before the next one,
			// so the resident set is one set-up's, not the sum.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return took, nil
}

// cpuClasses samples the runtime's CPU accounting: seconds spent in the
// garbage collector, and seconds the process was busy at all.
func cpuClasses() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// inBackground starts sample on a goroutine of its own and returns the
// function that stops it and hands back what it collected.
func inBackground(sample func(stop <-chan struct{}) []float64) func() []float64 {
	stop, out := make(chan struct{}), make(chan []float64, 1)
	go func() { out <- sample(stop) }()
	return func() []float64 { close(stop); return <-out }
}

// sampleRSS reads the process's resident set every rssEvery until stop
// closes, and returns the samples in MB.
func sampleRSS(stop <-chan struct{}) []float64 {
	var mb []float64
	read := func() {
		b, err := os.ReadFile("/proc/self/statm")
		if f := strings.Fields(string(b)); err == nil && len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				mb = append(mb, pages*float64(os.Getpagesize())/(1<<20))
			}
		}
	}
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		read()
		select {
		case <-stop:
			return mb
		case <-tick.C:
		}
	}
}

// stolenCPU is the time the hypervisor has kept the guest's CPUs for
// other guests since boot (0 where /proc/stat does not say).
func stolenCPU() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal …
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / 100 // USER_HZ
}

// peakRSSMB reads the process's high-water RSS from /proc.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("peak RSS: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
