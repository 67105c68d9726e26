package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder: a Sampler periodically snapshots selected
// registry metrics into fixed-capacity ring-buffered time series, so
// the signals that matter in a windowed system — fallback-rate spikes,
// slot-utilization collapse, queue-full stall storms — are visible as
// trajectories instead of end-of-run totals.
//
// Two clock domains exist. In the simulated-time domain (the default)
// nma.Sim drives the recorder by calling SimTick at the end of every
// refresh window; the sampler takes one sample every SimEvery ticks,
// so each sample is a tREFI epoch and the recorded series are
// bit-deterministic for a fixed seed at any worker count (samples are
// taken on the serial window-stepping path, after all parallel-phase
// counter bumps have completed). In the wall-clock domain (StartWall)
// a goroutine samples every interval, for long-running servers and
// benches. The disabled fast path of SimTick is one atomic load.

// Point is one sample of one series: T is simulated picoseconds in
// the sim domain or Unix nanoseconds in the wall domain.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// Series kinds recorded by the sampler.
const (
	SeriesCounter = "counter" // per-window delta of a (summed) counter family
	SeriesGauge   = "gauge"   // instantaneous value (summed across children)
	SeriesHCount  = "hist_count"
	SeriesHSum    = "hist_sum"
	SeriesHP50    = "hist_p50"
	SeriesHP95    = "hist_p95"
	SeriesHP99    = "hist_p99"
)

// series is one ring-buffered timeline.
type series struct {
	name    string // series name (metric name plus any histogram suffix)
	kind    string
	metric  string // source family
	buf     []Point
	next, n int
	dropped int64
}

func (s *series) push(p Point) {
	s.buf[s.next] = p
	s.next = (s.next + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	} else {
		s.dropped++
	}
}

func (s *series) points() []Point {
	out := make([]Point, 0, s.n)
	start := s.next - s.n
	for i := 0; i < s.n; i++ {
		out = append(out, s.buf[(start+i+len(s.buf))%len(s.buf)])
	}
	return out
}

// DefaultSeriesCapacity is the per-series ring size.
const DefaultSeriesCapacity = 1024

// DefaultSimEvery is the default sampling period in refresh windows
// (tREFI intervals) for the simulated-time clock domain.
const DefaultSimEvery = 64

// Sampler records time series over one registry. The zero value is not
// usable; call NewSampler (or use DefaultSampler). All methods are safe
// for concurrent use.
type Sampler struct {
	reg     *Registry
	enabled atomic.Bool
	// simEvery is the sim-domain sampling period in ticks; 0 routes
	// around SimTick entirely (wall domain or recorder unused).
	simEvery atomic.Int64
	ticks    atomic.Int64

	mu       sync.Mutex
	wall     bool // true after StartWall: timestamps are wall nanoseconds
	names    []string
	capacity int
	order    []*series
	byName   map[string]*series
	prevCtr  map[string]float64
	prevHist map[string]HistogramState
	samples  int
	lastT    int64
	haveLast bool
	stop     chan struct{}

	// Per-sim fan-out (multi-sim recording). One sampler owns one
	// strictly monotonic timeline, so when several simulators run in
	// parallel (xfmbench -j) and share the recorder, only the first to
	// reach a timestamp records it. With fan-out enabled, SimSampler
	// hands each new simulator a private child sampler (own tick clock
	// and rings, same registry and catalogue) and Dump merges the
	// per-sim rings afterwards. children has its own mutex so no
	// Sampler.mu ever nests inside another Sampler.mu.
	fanOut   atomic.Bool
	childMu  sync.Mutex
	children []*Sampler
}

// NewSampler builds a disabled sampler over reg recording the given
// metric families (DefaultSeriesMetrics when empty) with the given
// per-series ring capacity (DefaultSeriesCapacity when ≤ 0).
func NewSampler(reg *Registry, capacity int, metrics ...string) *Sampler {
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	if len(metrics) == 0 {
		metrics = DefaultSeriesMetrics()
	}
	s := &Sampler{
		reg:      reg,
		capacity: capacity,
		names:    append([]string(nil), metrics...),
		byName:   map[string]*series{},
		prevCtr:  map[string]float64{},
		prevHist: map[string]HistogramState{},
	}
	s.simEvery.Store(DefaultSimEvery)
	return s
}

// SetSimEvery sets the simulated-time sampling period in refresh
// windows (SimTick calls per sample); n ≤ 0 disables sim-domain
// sampling.
func (s *Sampler) SetSimEvery(n int) {
	if n < 0 {
		n = 0
	}
	s.simEvery.Store(int64(n))
}

// SetEnabled turns the recorder on or off (children included).
// Enabling does not re-baseline; call Reset first when starting a
// fresh recording.
func (s *Sampler) SetEnabled(on bool) {
	s.enabled.Store(on)
	for _, c := range s.childrenSnapshot() {
		c.SetEnabled(on)
	}
}

// Enabled reports whether the recorder is on.
func (s *Sampler) Enabled() bool { return s.enabled.Load() }

// Reset clears every recorded series and re-baselines the counter and
// histogram snapshots at the metrics' current values, so the first
// recorded window holds only activity after the reset. Fan-out
// children are detached: simulators built before a Reset belong to the
// previous recording.
func (s *Sampler) Reset() {
	s.mu.Lock()
	s.resetLocked()
	s.mu.Unlock()
	s.childMu.Lock()
	s.children = nil
	s.childMu.Unlock()
}

// SetFanOut enables (or disables) per-sim fan-out: while on, each
// SimSampler call returns a fresh child sampler instead of s itself.
// Existing children stay attached until Reset.
func (s *Sampler) SetFanOut(on bool) { s.fanOut.Store(on) }

// SimSampler returns the sampler a newly built simulator should tick.
// In the default single-recorder mode that is s itself — zero behavior
// change, one dump, bit-deterministic. With fan-out enabled it is a
// fresh child sampler over the same registry and catalogue, with its
// own tick clock and rings, baselined at the current registry state;
// Dump() merges the per-sim rings so no simulator's timeline is lost
// to another's first-writer-wins timestamp collision. Note the
// registry itself stays shared: under -j a child's windowed deltas
// include concurrent activity from sibling sims, so merged parallel
// recordings are full-coverage but not per-sim-exact.
func (s *Sampler) SimSampler() *Sampler {
	if !s.fanOut.Load() {
		return s
	}
	s.mu.Lock()
	capacity := s.capacity
	names := append([]string(nil), s.names...)
	s.mu.Unlock()
	c := NewSampler(s.reg, capacity, names...)
	c.simEvery.Store(s.simEvery.Load())
	c.Reset()
	c.enabled.Store(s.enabled.Load())
	s.childMu.Lock()
	s.children = append(s.children, c)
	s.childMu.Unlock()
	return c
}

// childrenSnapshot returns the attached fan-out children.
func (s *Sampler) childrenSnapshot() []*Sampler {
	s.childMu.Lock()
	defer s.childMu.Unlock()
	return append([]*Sampler(nil), s.children...)
}

func (s *Sampler) resetLocked() {
	s.order = nil
	s.byName = map[string]*series{}
	s.prevCtr = map[string]float64{}
	s.prevHist = map[string]HistogramState{}
	s.samples = 0
	s.haveLast = false
	s.lastT = 0
	s.ticks.Store(0)
	for _, name := range s.names {
		f := s.reg.familyByName(name)
		if f == nil {
			continue
		}
		switch f.kind {
		case kindCounter:
			s.prevCtr[name] = f.counterTotal()
		case kindHistogram:
			s.prevHist[name] = f.mergedState()
		}
	}
}

// Samples returns the number of samples taken since the last Reset,
// including samples recorded by fan-out children.
func (s *Sampler) Samples() int {
	s.mu.Lock()
	n := s.samples
	s.mu.Unlock()
	for _, c := range s.childrenSnapshot() {
		n += c.Samples()
	}
	return n
}

// SimTick is the simulated-time clock input, called by nma.Sim at the
// end of every refresh window with the window's execution time in
// picoseconds. Every SimEvery-th tick takes a sample. Ticks that do
// not advance the recorded timeline (a second simulator running behind
// the first) are dropped, keeping timestamps strictly monotonic.
//
//xfm:allocok sampling is amortized to once per sim_every ticks and writes into preallocated rings
func (s *Sampler) SimTick(nowPs int64) {
	if !s.enabled.Load() {
		return
	}
	every := s.simEvery.Load()
	if every <= 0 {
		return
	}
	if s.ticks.Add(1)%every != 0 {
		return
	}
	s.mu.Lock()
	if !s.wall {
		s.sampleLocked(nowPs)
	}
	s.mu.Unlock()
}

// SimTickRange advances the simulated-time clock by n ticks at once:
// the first tick lands at startPs and each subsequent tick stepPs
// later, exactly as n sequential SimTick calls would. It exists for
// the NMA engine's idle fast-forward, which must publish bulk counter
// updates without desynchronizing the recorded series: advance(k) is
// invoked with a not-yet-accounted tick count immediately before each
// sample the range triggers (and once with the remainder at the end),
// so the caller lands its coalesced metric adds in sample-aligned
// chunks and every sample reads exactly the registry state a stepped
// run would have produced. advance is always called with chunk counts
// summing to n, even when the recorder is disabled.
//
//xfm:allocok sampling is amortized to once per sim_every ticks and writes into preallocated rings
func (s *Sampler) SimTickRange(startPs, stepPs, n int64, advance func(k int64)) {
	if n <= 0 {
		return
	}
	if advance == nil {
		advance = func(int64) {}
	}
	// Disabled recorders do not count ticks (SimTick returns before its
	// ticks.Add), and neither does a sampler with sim-domain sampling
	// off; mirror both fast paths.
	if !s.enabled.Load() {
		advance(n)
		return
	}
	every := s.simEvery.Load()
	if every <= 0 {
		advance(n)
		return
	}
	done := int64(0)
	for done < n {
		t := s.ticks.Load()
		rem := every - t%every // ticks until the next sample fires
		if rem > n-done {
			k := n - done
			advance(k)
			s.ticks.Add(k)
			return
		}
		advance(rem)
		s.ticks.Add(rem)
		done += rem
		s.mu.Lock()
		if !s.wall {
			// The sample lands on the rem-th skipped window, whose
			// execution time is its position in the range.
			s.sampleLocked(startPs + (done-1)*stepPs)
		}
		s.mu.Unlock()
	}
}

// FinalSample appends one last sample just past the end of the
// recorded timeline, so short runs that never crossed a sampling
// period still produce a non-empty artifact.
func (s *Sampler) FinalSample() {
	s.mu.Lock()
	s.sampleLocked(s.lastT + 1)
	s.mu.Unlock()
}

func (s *Sampler) sampleLocked(t int64) {
	if s.haveLast && t <= s.lastT {
		return
	}
	s.lastT = t
	s.haveLast = true
	for _, name := range s.names {
		f := s.reg.familyByName(name)
		if f == nil {
			continue
		}
		switch f.kind {
		case kindCounter:
			cur := f.counterTotal()
			s.get(name, SeriesCounter, name).push(Point{T: t, V: cur - s.prevCtr[name]})
			s.prevCtr[name] = cur
		case kindGauge:
			s.get(name, SeriesGauge, name).push(Point{T: t, V: f.gaugeTotal()})
		case kindGaugeFunc:
			s.get(name, SeriesGauge, name).push(Point{T: t, V: f.fn()})
		case kindHistogram:
			cur := f.mergedState()
			d := cur.Delta(s.prevHist[name])
			s.prevHist[name] = cur
			s.get(name+"_count", SeriesHCount, name).push(Point{T: t, V: float64(d.Count())})
			s.get(name+"_sum", SeriesHSum, name).push(Point{T: t, V: d.Sum})
			s.get(name+"_p50", SeriesHP50, name).push(Point{T: t, V: d.Quantile(0.50)})
			s.get(name+"_p95", SeriesHP95, name).push(Point{T: t, V: d.Quantile(0.95)})
			s.get(name+"_p99", SeriesHP99, name).push(Point{T: t, V: d.Quantile(0.99)})
		}
	}
	s.samples++
}

func (s *Sampler) get(name, kind, metric string) *series {
	sr := s.byName[name]
	if sr == nil {
		sr = &series{name: name, kind: kind, metric: metric, buf: make([]Point, s.capacity)}
		s.byName[name] = sr
		s.order = append(s.order, sr)
	}
	return sr
}

// StartWall switches the sampler to the wall-clock domain and starts a
// goroutine sampling every interval until Stop. Sim ticks are ignored
// while the wall clock runs.
func (s *Sampler) StartWall(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	s.wall = true
	s.simEvery.Store(0)
	stop := make(chan struct{})
	s.stop = stop
	s.mu.Unlock()
	s.enabled.Store(true)
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				// A tick can win the select against a closed stop;
				// Stop clears s.stop under mu, so checking it here
				// guarantees no sample lands after Stop returns.
				s.mu.Lock()
				if s.stop == stop {
					s.sampleLocked(now.UnixNano())
				}
				s.mu.Unlock()
			}
		}
	}()
}

// Stop halts a wall-clock sampling goroutine (no-op otherwise) and
// disables the recorder, fan-out children included. Recorded series
// stay readable.
func (s *Sampler) Stop() {
	s.enabled.Store(false)
	s.mu.Lock()
	if s.stop != nil {
		close(s.stop)
		s.stop = nil
	}
	s.mu.Unlock()
	for _, c := range s.childrenSnapshot() {
		c.Stop()
	}
}

// Clock names used in dumps.
const (
	ClockSimPs  = "sim-ps"
	ClockWallNs = "wall-ns"
)

// SeriesDump is the exported view of one recorded series.
type SeriesDump struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind"`
	Metric  string  `json:"metric"`
	Dropped int64   `json:"dropped,omitempty"`
	Points  []Point `json:"points"`
}

// Dump is the time-series artifact schema (written by -timeseries-out,
// served on /debug/timeseries, validated by telemetryck, rendered by
// xfmtop).
type Dump struct {
	Schema   int    `json:"schema"`
	Clock    string `json:"clock"`
	SimEvery int64  `json:"sim_every,omitempty"`
	Samples  int    `json:"samples"`
	// Ticks counts clock inputs seen (sim domain: refresh windows).
	Ticks  int64        `json:"ticks,omitempty"`
	Series []SeriesDump `json:"series"`
}

// DumpSchemaVersion is the current Dump schema.
const DumpSchemaVersion = 1

// Dump snapshots every recorded series. When fan-out children are
// attached (multi-sim recording), their rings are merged in: series
// are matched by name and points merged by timestamp, with the earlier
// source (parent first, then children in creation order) winning a
// timestamp collision, so every merged series stays strictly
// monotonic.
func (s *Sampler) Dump() *Dump {
	d := s.dumpOwn()
	kids := s.childrenSnapshot()
	if len(kids) == 0 {
		return d
	}
	dumps := make([]*Dump, 0, len(kids)+1)
	dumps = append(dumps, d)
	for _, c := range kids {
		dumps = append(dumps, c.dumpOwn())
	}
	return mergeDumps(dumps)
}

// dumpOwn snapshots this sampler's own rings, ignoring children.
func (s *Sampler) dumpOwn() *Dump {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := &Dump{
		Schema:  DumpSchemaVersion,
		Clock:   ClockSimPs,
		Samples: s.samples,
		Ticks:   s.ticks.Load(),
	}
	if s.wall {
		d.Clock = ClockWallNs
	} else {
		d.SimEvery = s.simEvery.Load()
	}
	for _, sr := range s.order {
		d.Series = append(d.Series, SeriesDump{
			Name: sr.name, Kind: sr.kind, Metric: sr.metric,
			Dropped: sr.dropped, Points: sr.points(),
		})
	}
	return d
}

// mergeDumps combines per-sim dumps into one artifact: Samples and
// Ticks sum, series match by name in first-seen order, and each
// series' points merge sorted by timestamp with the earlier source
// winning ties. Sources are passed in a deterministic order, so the
// merged dump is bit-reproducible whenever the inputs are.
func mergeDumps(dumps []*Dump) *Dump {
	out := &Dump{
		Schema:   DumpSchemaVersion,
		Clock:    dumps[0].Clock,
		SimEvery: dumps[0].SimEvery,
	}
	var names []string
	byName := map[string][]SeriesDump{}
	for _, d := range dumps {
		out.Samples += d.Samples
		out.Ticks += d.Ticks
		for _, sr := range d.Series {
			if _, ok := byName[sr.Name]; !ok {
				names = append(names, sr.Name)
			}
			byName[sr.Name] = append(byName[sr.Name], sr)
		}
	}
	for _, name := range names {
		srcs := byName[name]
		m := SeriesDump{Name: name, Kind: srcs[0].Kind, Metric: srcs[0].Metric}
		n := 0
		for _, sr := range srcs {
			m.Dropped += sr.Dropped
			n += len(sr.Points)
		}
		pts := make([]Point, 0, n)
		for _, sr := range srcs {
			pts = append(pts, sr.Points...)
		}
		// Stable sort keeps the earlier source's point first among equal
		// timestamps; the dedupe below then drops the later ones.
		sort.SliceStable(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
		merged := pts[:0]
		for _, p := range pts {
			if len(merged) > 0 && merged[len(merged)-1].T == p.T {
				continue
			}
			merged = append(merged, p)
		}
		m.Points = merged
		out.Series = append(out.Series, m)
	}
	return out
}

// WriteJSON writes the dump as indented JSON.
func (s *Sampler) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s.Dump())
}

// WriteCSV writes the dump in long format (series,t,value), one row
// per point — trivially loadable into any plotting tool and robust to
// series of unequal length.
func (s *Sampler) WriteCSV(w io.Writer) error {
	d := s.Dump()
	if _, err := io.WriteString(w, "series,t,value\n"); err != nil {
		return err
	}
	for _, sr := range d.Series {
		for _, p := range sr.Points {
			if _, err := fmt.Fprintf(w, "%s,%d,%s\n", sr.Name, p.T, promFloat(p.V)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadDump parses a time-series artifact.
func ReadDump(r io.Reader) (*Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("telemetry: invalid time-series dump: %w", err)
	}
	return &d, nil
}

// Index maps series names to their points for health-rule evaluation.
func (d *Dump) Index() SeriesIndex {
	idx := make(SeriesIndex, len(d.Series))
	for _, s := range d.Series {
		idx[s.Name] = s.Points
	}
	return idx
}

// familyByName returns the named family, or nil.
func (r *Registry) familyByName(name string) *family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.fams[name]
}

// counterTotal sums a counter family's children (one child when
// unlabeled). Summation commutes, so map iteration order is harmless.
func (f *family) counterTotal() float64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	total := 0.0
	for _, m := range f.children {
		if c, ok := m.(*Counter); ok {
			total += float64(c.Value())
		}
	}
	return total
}

// gaugeTotal sums a gauge family's children (for vec families like
// per-shard occupancy the sum is the meaningful fleet-wide value).
func (f *family) gaugeTotal() float64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	total := 0.0
	for _, m := range f.children {
		if g, ok := m.(*Gauge); ok {
			total += g.Value()
		}
	}
	return total
}

// mergedState merges the bucket states of a histogram family's
// children (same bucket layout within one family by construction).
func (f *family) mergedState() HistogramState {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out HistogramState
	for _, m := range f.children {
		h, ok := m.(*Histogram)
		if !ok {
			continue
		}
		st := h.State()
		if out.Counts == nil {
			out = st
			continue
		}
		for i := range st.Counts {
			out.Counts[i] += st.Counts[i]
		}
		out.Sum += st.Sum
	}
	return out
}

var (
	defaultSamplerOnce sync.Once
	defaultSampler     *Sampler
)

// DefaultSampler returns the process-wide flight recorder over the
// default registry, disabled until a CLI (or test) enables it.
func DefaultSampler() *Sampler {
	defaultSamplerOnce.Do(func() {
		defaultSampler = NewSampler(defaultRegistry, DefaultSeriesCapacity)
	})
	return defaultSampler
}
