package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one interval at a layer boundary, recorded from the benchmark's
// own files around a call into that layer. Parent is the id of the span that
// caused it (0: none); spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is what every untraced run passes around.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id; 0 from a nil tracer.
func (t *tracer) begin(layer, name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Layer: layer,
		Start: now, Parent: parent, Req: req})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, each span's duration minus the part of
// it its child spans cover (children of one span never overlap here: a
// caller waits for each call it makes).
func (t *tracer) selfTimes() map[string]series {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent-1] += s.End - s.Start
		}
	}
	out := make(map[string]series)
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered[i]))
	}
	return out
}

// durations returns every span's whole duration, by name, in start order.
func (t *tracer) durations() map[string]series {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]series)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
	}
	return out
}

// flush writes the spans as one JSON array.
func (t *tracer) flush(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
