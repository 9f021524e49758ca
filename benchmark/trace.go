package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the layer. Spans of one operation share Op; Parent is the
// span that made the call, 0 for none.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"` // filled in when the trace is written
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the same code path runs traced and untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id, 0 when tracing is off.
func (t *tracer) start(name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// do times fn as a span.
func (t *tracer) do(name string, parent int, op int64, fn func() error) error {
	id := t.start(name, parent, op)
	err := fn()
	t.end(id)
	return err
}

// ms returns the duration of every closed span with the name, in
// milliseconds, in recording order.
func (t *tracer) ms(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNS >= s.StartNS && s.EndNS != 0 {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// p50 is the median duration of the spans with the name.
func (t *tracer) p50(name string) float64 { return median(t.ms(name)) }

// selfTimes gives each span's duration minus the part of its interval
// that its direct children cover. Overlapping children (parallel
// calls) are counted once: the covered part is the union of the child
// intervals, clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		var covered int64
		reach := p.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, p.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[p.ID] = (p.EndNS - p.StartNS) - covered
	}
	return out
}

// write dumps every span, with its self time, as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	for i := range t.spans {
		t.spans[i].SelfNS = self[t.spans[i].ID]
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
