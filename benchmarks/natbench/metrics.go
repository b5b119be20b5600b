package main

// The metric catalogue. BENCHMARK.json at the root of the repository is
// the one place that names the workloads, the end-to-end metrics (with
// their bounds) and the per-layer metrics; natbench reads it at start-up
// and emits exactly those names. "Native" metrics are the few a single
// workload has beyond the shared end-to-end names; BENCHMARK.json has no
// room for them (every workload must emit every end-to-end metric), so
// they are catalogued here, with the issue's bounds, and `natbench
// compare` gates them too.

import (
	"encoding/json"
	"fmt"
	"os"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // regression bound as a share of the base median; 0 = none
}

// catalogue is the part of BENCHMARK.json natbench needs.
type catalogue struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readCatalogue(path string) (*catalogue, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalogue
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.Workloads) == 0 || len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: names no workloads or no metrics", path)
	}
	return &c, nil
}

func (c *catalogue) workloadNames() []string {
	names := make([]string, len(c.Workloads))
	for i, w := range c.Workloads {
		names[i] = w.Name
	}
	return names
}

// nativeSpecs are the issue's workload-specific names that no shared
// end-to-end name already carries (the README maps the rest).
var nativeSpecs = []metricSpec{
	{"ack_p50_ms", "ms", "lower", 0.10}, // figures-live only; op_p50_ms on the ingest workloads
	{"ack_p95_ms", "ms", "lower", 0.15},
	{"saturated_ack_p50_ms", "ms", "lower", 0.15},
	{"figure_refresh_p90_ms", "ms", "lower", 0.15},
	{"figure_lag_p50_ms", "ms", "lower", 0.15},
	{"reopen_s", "s", "lower", 0.10},
}

// gated lists every metric `compare` judges: BENCHMARK.json's end-to-end
// list, then the native ones.
func (c *catalogue) gated() []metricSpec {
	return append(append([]metricSpec(nil), c.EndToEnd...), nativeSpecs...)
}

func unitsOf(specs []metricSpec) map[string]string {
	m := make(map[string]string, len(specs))
	for _, s := range specs {
		m[s.Name] = s.Unit
	}
	return m
}

// tracedLayers are the layers a span can belong to; each has a
// <layer>.self_share per-layer metric.
var tracedLayers = []string{"collector", "cluster", "segment", "analysis", "figures"}

// spanShares fills the span-derived per-layer metrics. A client's root
// span covers its whole phase; the time its children (calls into a
// layer, or the open loop's idle wait) do not cover is unattributed.
// Shares are of the attributed busy time, so an idle open loop does not
// dilute them.
func spanShares(spans []span, into map[string]float64) {
	isWait := func(s span) bool { return s.Name == "loadgen.wait" }
	busy := layerSelf(spans, func(s span) bool { return s.Parent != 0 && !isWait(s) })
	waitNs := layerSelf(spans, isWait)["loadgen"]
	var rootNs, attributed int64
	for _, s := range spans {
		if s.Parent == 0 {
			rootNs += s.EndNs - s.StartNs
		}
	}
	for _, ns := range busy {
		attributed += ns
	}
	for _, l := range tracedLayers {
		into[l+".self_share"] = 0
		if attributed > 0 {
			into[l+".self_share"] = float64(busy[l]) / float64(attributed)
		}
	}
	into["bench.trace_coverage_share"] = 0
	if rootNs > 0 {
		into["bench.trace_coverage_share"] = float64(attributed+waitNs) / float64(rootNs)
	}
}
