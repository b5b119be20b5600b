package main

// In-memory span recorder. Spans are recorded from natbench's own files,
// around the calls it makes into each layer's public API; nothing inside
// the system under test is touched. A span's layer is the package whose
// API the call enters — the prefix of its name up to the first dot.

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one recorded interval. Parent is the ID of the span that
// caused it (0 for a root); spans of one request chain share Root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Root     int    `json:"root"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the tracer's epoch
	EndNs    int64  `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// start opens a span and returns its ID; parent 0 makes it a root.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	root := id
	if parent > 0 {
		root = t.spans[parent-1].Root
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Root: root, Name: name,
		Workload: t.workload, StartNs: now, EndNs: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// in runs fn inside a span.
func (t *tracer) in(name string, parent int, fn func(id int)) {
	id := t.start(name, parent)
	fn(id)
	t.end(id)
}

// finished returns the closed spans.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.EndNs >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its direct children (overlapping children
// are merged first, and clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		var covered, curStart, curEnd int64
		open := false
		for _, k := range kids {
			ks, ke := max(k.StartNs, s.StartNs), min(k.EndNs, s.EndNs)
			if ke <= ks {
				continue
			}
			switch {
			case !open:
				curStart, curEnd, open = ks, ke, true
			case ks <= curEnd:
				curEnd = max(curEnd, ke)
			default:
				covered += curEnd - curStart
				curStart, curEnd = ks, ke
			}
		}
		if open {
			covered += curEnd - curStart
		}
		self[s.ID] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// layerSelf sums self time per layer over the spans whose name passes
// keep (nil keeps all).
func layerSelf(spans []span, keep func(span) bool) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		if keep == nil || keep(s) {
			out[s.layer()] += self[s.ID]
		}
	}
	return out
}

func writeTrace(path string, spans []span) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
