package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval. Root spans are the public calls a workload
// times (CSRSpMV, MulVec, CG, SetupPooled); because the benchmark may not
// instrument the program, child spans are standalone replays of a stage's
// public function on the same input (Replay true) and therefore lie after
// their parent on the clock — a parent's self time is computed from
// durations, not from interval coverage.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root
	Request int    `json:"request"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Replay  bool   `json:"replay"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer is the
// untraced run: every method is a no-op, so the timed code is identical.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a finished interval and returns its id for children to name.
func (t *tracer) add(parent, request int, layer, name string, start time.Time, d time.Duration, replay bool) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	s := start.Sub(t.origin).Nanoseconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Layer: layer, Name: name,
		StartNs: s, EndNs: s + d.Nanoseconds(), Replay: replay})
	return id
}

// replay times fn as a child span of parent and returns its seconds.
func (t *tracer) replay(parent, request int, layer, name string, fn func()) float64 {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.add(parent, request, layer, name, start, d, true)
	return d.Seconds()
}

// layerSeconds attributes every span's self time (duration minus its direct
// children's durations) to its layer, and returns the total root duration.
func (t *tracer) layerSeconds() (byLayer map[string]float64, rootSec float64) {
	byLayer = map[string]float64{}
	if t == nil {
		return byLayer, 0
	}
	childSum := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			childSum[s.Parent] += float64(s.EndNs-s.StartNs) / 1e9
		}
	}
	for _, s := range t.spans {
		d := float64(s.EndNs-s.StartNs) / 1e9
		byLayer[s.Layer] += selfTime(d, childSum[s.ID])
		if s.Parent == 0 {
			rootSec += d
		}
	}
	return byLayer, rootSec
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
