package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Span is one recorded simulated-time interval. Start and Dur are in
// picoseconds (dram.Ps); the Chrome exporter converts to microseconds.
type Span struct {
	Name  string
	Cat   string
	Track int
	Start int64
	Dur   int64
	Args  map[string]int64
}

// End returns Start+Dur.
func (s Span) End() int64 { return s.Start + s.Dur }

// Tracer records spans into a bounded ring buffer. Recording is a
// single short mutex-protected append; when the tracer is disabled
// (the default) the fast path is one atomic load and no lock, so
// instrumented hot paths cost nothing in production runs. When the
// ring is full the oldest spans are overwritten and counted as
// dropped.
type Tracer struct {
	enabled atomic.Bool

	mu      sync.Mutex
	buf     []Span
	next    int   // next write index
	n       int   // live spans (≤ len(buf))
	dropped int64 // spans overwritten after the ring wrapped
	tracks  []string
}

// DefaultTraceCapacity is the ring size NewTracer allocates lazily on
// first record.
const DefaultTraceCapacity = 1 << 16

// NewTracer builds a disabled tracer with the default capacity.
func NewTracer() *Tracer { return &Tracer{} }

// SetEnabled turns recording on or off.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether spans are being recorded. Instrumentation
// must check this before building span arguments.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// NewTrack registers a named timeline track (a Chrome trace tid) and
// returns its id. Tracks group spans from one emitter — an NMA rank, a
// DRAM rank, the swap capture point — into separate rows of the
// timeline view.
func (t *Tracer) NewTrack(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tracks = append(t.tracks, name)
	return len(t.tracks) - 1
}

// Tracks returns the registered track names indexed by track id.
func (t *Tracer) Tracks() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.tracks...)
}

func (t *Tracer) record(s Span) {
	if !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	if t.buf == nil {
		t.buf = make([]Span, DefaultTraceCapacity)
	}
	t.buf[t.next] = s
	t.next = (t.next + 1) % len(t.buf)
	if t.n < len(t.buf) {
		t.n++
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Span records a [start, end] interval on a track. args may be nil;
// the map is retained, so callers must not reuse it.
func (t *Tracer) Span(track int, name, cat string, start, end int64, args map[string]int64) {
	if end < start {
		end = start
	}
	t.record(Span{Name: name, Cat: cat, Track: track, Start: start, Dur: end - start, Args: args})
}

// Len returns the number of live spans in the ring.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped returns how many spans the ring overwrote.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset discards all recorded spans (tracks stay registered).
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next, t.n, t.dropped = 0, 0, 0
}

// Spans returns a copy of the live spans in recording order (oldest
// first).
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.n)
	start := t.next - t.n
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(start+i+len(t.buf))%len(t.buf)])
	}
	return out
}

// chromeEvent is one entry of the Chrome trace-event JSON format.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"` // microseconds
	Dur  *float64               `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

const psPerMicrosecond = 1e6

// WriteChromeTrace exports the live spans as Chrome trace-event JSON,
// loadable in chrome://tracing and Perfetto. Simulated picosecond
// timestamps map to trace microseconds; track ids become thread ids
// with thread_name metadata, so each emitter renders as one timeline
// row and nested spans (NMA ops inside refresh windows) stack.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	tracks := t.Tracks()

	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(e chromeEvent) error {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = w.Write(b)
		return err
	}
	if err := emit(chromeEvent{Name: "process_name", Ph: "M",
		Args: map[string]interface{}{"name": "xfm-sim"}}); err != nil {
		return err
	}
	for tid, name := range tracks {
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Tid: tid,
			Args: map[string]interface{}{"name": fmt.Sprintf("%s [%d]", name, tid)}}); err != nil {
			return err
		}
	}
	for _, s := range spans {
		dur := float64(s.Dur) / psPerMicrosecond
		e := chromeEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			Ts:   float64(s.Start) / psPerMicrosecond,
			Dur:  &dur,
			Tid:  s.Track,
		}
		if len(s.Args) > 0 {
			e.Args = make(map[string]interface{}, len(s.Args))
			for k, v := range s.Args {
				e.Args[k] = v
			}
		}
		if err := emit(e); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, `],"otherData":{"droppedSpans":%d}}`, t.Dropped())
	return err
}
