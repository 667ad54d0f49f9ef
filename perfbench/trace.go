package main

import (
	"sync"
	"time"
)

// span is one of the benchmark's own spans around a call into a layer.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Op      int64  `json:"op"` // the read or write the span belongs to
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the benchmark's spans and the engine's per-query traces in
// memory until the run ends. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	ops   int64
	spans []span
	runs  []tracedRun
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: now})
	return id
}

func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

func (t *tracer) addRun(r tracedRun) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.runs = append(t.runs, r)
	t.mu.Unlock()
}

// selfTimes sums each span name's duration minus the time its child spans
// cover, and counts the spans.
func (t *tracer) selfTimes() (self map[string]time.Duration, count map[string]int) {
	self, count = map[string]time.Duration{}, map[string]int{}
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.EndNS - s.StartNS - child[s.ID])
		count[s.Name]++
	}
	return self, count
}
