package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Times are ns since the tracer's epoch.
type span struct {
	Name   string
	Layer  string
	Start  int64
	End    int64
	Parent int // index of the span that caused this one; -1 for a root
	Round  int // shared by every span of one round
	leaf   bool
}

// tracer keeps spans in memory until the run ends. The load generator
// is one goroutine, so the open-span stack is a single "current" index;
// codec spans arrive from the backends' worker goroutines through leaf,
// which names whatever span the generator is inside as their cause.
//
// A nil *tracer is the tracing-off state: every method is a no-op, so
// workloads call it unconditionally and the untraced run pays one nil
// check per call.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	current int
	round   int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), current: -1}
}

// begin opens a span under the current one and makes it current.
func (t *tracer) begin(name, layer string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now, Parent: t.current, Round: t.round})
	t.current = len(t.spans) - 1
	return t.current
}

// end closes span id and makes its parent current again.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.current = t.spans[id].Parent
}

// leaf records a finished child span of the current span; safe from any
// goroutine.
func (t *tracer) leaf(name, layer string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Layer: layer,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Parent: t.current, Round: t.round, leaf: true,
	})
}

// selfTimes returns, per span, its duration minus the part of it that
// its direct children cover. Children running at once on several
// workers overlap, so coverage is the union of their intervals clipped
// to the parent — never the sum, which could exceed the parent itself.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace format
// (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes the spans to path. The generator's nested
// spans go on lane 0; leaf spans, whose worker is not visible from
// outside the backend, are packed greedily into the first lane free at
// their start time, which draws concurrent codec calls side by side.
func writeChromeTrace(path string, spans []span) error {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].Start < spans[order[b]].Start })
	var laneEnd []int64
	events := make([]chromeEvent, 0, len(spans))
	for _, i := range order {
		s := spans[i]
		tid := 0
		if s.leaf {
			tid = -1
			for l, end := range laneEnd {
				if end <= s.Start {
					tid = l
					break
				}
			}
			if tid < 0 {
				laneEnd = append(laneEnd, 0)
				tid = len(laneEnd) - 1
			}
			laneEnd[tid] = s.End
			tid++
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]int{"span": i, "parent": s.Parent, "round": s.Round},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
