package main

import (
	"bytes"
	"context"
	"math"
	"testing"
)

func loadCatalogue(t *testing.T) *catalogue {
	t.Helper()
	cat, err := readCatalogue("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestSmoke runs every workload at about a fiftieth of full scale —
// ingest-cluster traced, so the probes and span shares run too — and
// checks the result object against BENCHMARK.json: every named metric
// emitted, finite and unit-tagged, and nothing unnamed.
func TestSmoke(t *testing.T) {
	cat := loadCatalogue(t)
	for _, w := range cat.workloadNames() {
		t.Run(w, func(t *testing.T) {
			traced := w == "ingest-cluster"
			res, err := execute(context.Background(), cat, runConfig{workload: w, seed: 3, seconds: 1,
				traced: traced, scratch: t.TempDir(), sizes: smokeSizes()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			want := map[string]string{}
			for _, m := range cat.EndToEnd {
				if !traced {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range cat.PerLayer {
				if traced {
					want[m.Name] = m.Unit
				}
			}
			line := contractLine(cat, res)
			for name, unit := range want {
				got, ok := line.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s not emitted", name)
				case got.Unit != unit:
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s = %v", name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("end-to-end metric %s = %v, want > 0", name, got.Value)
				}
			}
			for name := range line.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s emitted but not named in BENCHMARK.json", name)
				}
			}
			src := res.EndToEnd
			if traced {
				src = res.PerLayer
				if len(res.spans) == 0 {
					t.Error("traced run recorded no spans")
				}
				if c := res.PerLayer["bench.trace_coverage_share"]; c < 0.8 {
					t.Errorf("spans cover %.2f of the clients' time, want >= 0.8", c)
				}
				if res.PerLayer["cluster.self_share"] <= 0 {
					t.Error("ingest-cluster trace attributes no time to the cluster layer")
				}
			}
			for name := range src {
				if _, ok := want[name]; !ok {
					t.Errorf("run produced %s, which BENCHMARK.json does not name", name)
				}
			}
			// Durations and rates are reported at the reference speed,
			// with the clock's reading kept beside them.
			for _, m := range cat.gated() {
				v, ok := res.EndToEnd[m.Name]
				if !ok {
					v, ok = res.Native[m.Name]
				}
				f := speedRefMs / res.Diag["speed_kernel_ms"]
				if m.Name == "setup_s" {
					f = speedRefMs / res.Diag["setup_speed_kernel_ms"]
				}
				raw, scaled := res.Diag["raw."+m.Name]
				switch sense := speedSense(m.Unit); {
				case !ok:
				case sense == 0 && scaled:
					t.Errorf("%s (%s) was scaled by the machine's speed", m.Name, m.Unit)
				case sense == 1 && math.Abs(v-raw*f) > 1e-9*v, sense == -1 && math.Abs(v-raw/f) > 1e-9*v:
					t.Errorf("%s = %v, raw %v, speed factor %v", m.Name, v, raw, f)
				}
			}
			native, shared := unitsOf(nativeSpecs), unitsOf(cat.EndToEnd)
			for name, v := range res.Native {
				_, ok := native[name]
				_, dup := shared[name]
				if !ok || dup || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("native metric %s = %v (catalogued: %v, also an end-to-end name: %v)", name, v, ok, dup)
				}
			}
		})
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {39, 0, false}, {40, 0.75, true}, {99, 0.75, true}, {100, 0.90, true},
		{199, 0.90, true}, {200, 0.95, true}, {999, 0.95, true}, {1000, 0.99, true}, {10000, 0.999, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i + 1)
	}
	tm := summarize(s)
	if tm.TailQ != 0.95 || tm.N != 200 || math.Abs(tm.P50-100.5) > 1e-9 || math.Abs(tm.Tail-190.05) > 1e-9 {
		t.Errorf("summarize(1..200) = %+v", tm)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 4, 8, 16}); got != 10.5/4 {
		t.Errorf("spread = %v", got)
	}
}

// TestSelfTime: a span's self time is its duration minus what its
// children cover, overlapping children counted once and clipped to the
// parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "loadgen.client", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "cluster.front_post", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "loadgen.wait", StartNs: 30, EndNs: 60},         // overlaps span 2
		{ID: 4, Parent: 1, Name: "collector.post_json", StartNs: 90, EndNs: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "collector.post_batch", StartNs: 15, EndNs: 25},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	by := layerSelf(spans, nil)
	if by["collector"] != 40 || by["cluster"] != 20 || by["loadgen"] != 70 {
		t.Errorf("layer self times = %v", by)
	}
	into := map[string]float64{}
	spanShares(spans, into)
	// attributed: cluster 20 + collector 40 = 60; wait 30; root 100.
	if into["cluster.self_share"] != 20.0/60 || into["collector.self_share"] != 40.0/60 || into["bench.trace_coverage_share"] != 0.9 {
		t.Errorf("span shares = %v", into)
	}
}

func TestTracerParents(t *testing.T) {
	tr := newTracer("w")
	root := tr.start("loadgen.client", 0)
	child := tr.start("collector.post_batch", root)
	tr.end(child)
	open := tr.start("collector.post_batch", root) // never ended: not reported
	_ = open
	tr.end(root)
	got := tr.finished()
	if len(got) != 2 || got[1].Parent != root || got[1].Root != root || got[1].Workload != "w" || got[1].layer() != "collector" {
		t.Errorf("finished spans = %+v", got)
	}
	var none *tracer
	none.end(none.start("x.y", 0)) // a nil tracer records nothing and does not panic
	if len(none.finished()) != 0 {
		t.Error("nil tracer recorded spans")
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		cand   []float64
		better string
		bound  float64
		want   verdict
	}{
		{"within bound", []float64{104, 105, 103, 104, 106}, "lower", 0.10, verdictOK},
		{"slower past bound", []float64{115, 116, 114, 115, 117}, "lower", 0.10, verdictRegressed},
		{"higher is better, dropped", []float64{85, 86, 84, 85, 87}, "higher", 0.10, verdictRegressed},
		{"higher is better, rose", []float64{130, 131, 129, 130, 132}, "higher", 0.10, verdictOK},
		{"too noisy to tell", []float64{80, 120, 100, 90, 110}, "lower", 0.10, verdictUnresolved},
		{"worse, but inside the noise", []float64{92, 138, 115, 103, 127}, "lower", 0.10, verdictUnresolved},
		{"worse by more than the noise", []float64{160, 200, 180, 170, 190}, "lower", 0.10, verdictRegressed},
	} {
		if _, _, _, got := judge(base, c.cand, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareRefusesPartialFile: a result file that lacks one of the
// catalogue's workloads is refused, not judged on what it has; a metric
// one side lacks counts as regressed.
func TestCompareRefusesPartialFile(t *testing.T) {
	cat := loadCatalogue(t)
	full := func() *resultFile {
		f := &resultFile{Header: header{NProc: 2, GOMAXPROCS: 2, Seconds: 20, FlushRows: flushRows}}
		for _, w := range cat.workloadNames() {
			r := &runResult{Workload: w, Attempted: 10, Correct: true, EndToEnd: map[string]float64{}}
			for _, m := range cat.EndToEnd {
				r.EndToEnd[m.Name] = 1
			}
			f.Runs = append(f.Runs, r)
		}
		return f
	}
	var out bytes.Buffer
	if code := compare(&out, cat, full(), full(), "a", "b"); code != 0 {
		t.Fatalf("identical files: exit %d\n%s", code, out.String())
	}
	partial := full()
	partial.Runs = partial.Runs[1:]
	out.Reset()
	if code := compare(&out, cat, full(), partial, "a", "b"); code != 2 || !bytes.Contains(out.Bytes(), []byte("refused: b has no run of "+cat.Workloads[0].Name)) {
		t.Errorf("candidate without %s: exit %d, want 2 and a refusal\n%s", cat.Workloads[0].Name, code, out.String())
	}
	thin := full()
	delete(thin.Runs[0].EndToEnd, cat.EndToEnd[1].Name)
	out.Reset()
	if code := compare(&out, cat, full(), thin, "a", "b"); code != 1 {
		t.Errorf("candidate without %s: exit %d, want 1\n%s", cat.EndToEnd[1].Name, code, out.String())
	}
}

// TestGenerateDeterministic: the same seed gives the same bytes, however
// the work was split; another seed gives others; keys never repeat.
func TestGenerateDeterministic(t *testing.T) {
	cfg := genConfig{seed: 5, batches: 12, directShare: directShare, redeliver: redeliverShare}
	a, b := generate(cfg), generate(cfg)
	if len(a.ops) != len(b.ops) || a.rows != b.rows {
		t.Fatalf("same seed: %d ops/%d rows vs %d/%d", len(a.ops), a.rows, len(b.ops), b.rows)
	}
	direct := 0
	for i := range a.ops {
		if !bytes.Equal(a.ops[i].body, b.ops[i].body) || a.ops[i].key != b.ops[i].key {
			t.Fatalf("same seed: op %d differs", i)
		}
		if a.ops[i].path != "/v1/batch" {
			direct++
		}
	}
	if want := 12 * itemsPerBatch / 9; direct < want-1 || direct > want+1 {
		t.Errorf("%d direct uploads beside 12 batches, want about %d (a tenth of all uploads)", direct, want)
	}
	// A later window of the same seed repeats the tail of a longer one.
	tail := generate(genConfig{seed: 5, firstBatch: 8, batches: 4, directShare: directShare, redeliver: redeliverShare})
	off := len(a.ops) - len(tail.ops)
	for i := range tail.ops {
		if !bytes.Equal(tail.ops[i].body, a.ops[off+i].body) {
			t.Fatalf("batch window [8,12) differs from the same batches of [0,12) at op %d", i)
		}
	}
	other := generate(genConfig{seed: 6, batches: 12})
	if bytes.Equal(other.ops[0].body, a.ops[0].body) {
		t.Error("seeds 5 and 6 generated the same first batch")
	}
}
