package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
)

// The flight recorder: a Sampler periodically samples every catalogue
// row into fixed-capacity ring-buffered time series, so
// the signals that matter in a windowed system — fallback-rate spikes,
// slot-utilization collapse, queue-full stall storms — are visible as
// trajectories instead of end-of-run totals.
//
// The recorder has one clock: simulated time. While it records, nma.Sim
// drives it by calling SimTick at the end of every refresh window it
// steps (SimTickRange for a fast-forwarded range), right after
// publishing its counts to the catalogue; the sampler takes one sample
// every SimEvery ticks, so each sample is a tREFI epoch and the
// recorded series are bit-deterministic for a fixed seed. A sampler
// owns one strictly monotonic timeline over the shared catalogue, so a
// recording is serial because the program that makes it runs its
// simulators one after another.

// Point is one sample of one series: T is simulated picoseconds.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// Series kinds recorded by the sampler.
const (
	SeriesCounter = "counter" // per-window delta of a counter
	SeriesGauge   = "gauge"   // instantaneous value
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
	metric  string // source row
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

// Sampler records one time series per catalogue row (five per
// histogram row), in catalogue order. The zero value is not usable;
// call NewSampler (or use DefaultSampler). All methods are safe for
// concurrent use.
type Sampler struct {
	rows    []row
	enabled atomic.Bool
	// simEvery is the sampling period in ticks; 0 routes around SimTick
	// entirely.
	simEvery atomic.Int64
	ticks    atomic.Int64

	mu       sync.Mutex
	capacity int
	order    []*series // every row's series, in push order
	prevCtr  []float64 // by row index: the counter at the last sample
	prevHist []HistogramState
	samples  int
	lastT    int64
	haveLast bool
}

// NewSampler builds a disabled sampler over the catalogue with the
// given per-series ring capacity (DefaultSeriesCapacity when ≤ 0).
func NewSampler(capacity int) *Sampler { return newSampler(capacity, catalogue) }

func newSampler(capacity int, rows []row) *Sampler {
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	s := &Sampler{
		rows:     rows,
		capacity: capacity,
		prevCtr:  make([]float64, len(rows)),
		prevHist: make([]HistogramState, len(rows)),
	}
	s.simEvery.Store(DefaultSimEvery)
	return s
}

// SetSimEvery sets the sampling period in refresh windows (SimTick
// calls per sample); n ≤ 0 disables sampling.
func (s *Sampler) SetSimEvery(n int) {
	if n < 0 {
		n = 0
	}
	s.simEvery.Store(int64(n))
}

// SetEnabled turns the recorder on or off; recorded series stay
// readable. Enabling does not re-baseline; call Reset first when
// starting a fresh recording.
func (s *Sampler) SetEnabled(on bool) { s.enabled.Store(on) }

// Reset clears every recorded series and re-baselines the counter and
// histogram snapshots at the metrics' current values, so the first
// recorded window holds only activity after the reset.
func (s *Sampler) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.order = nil
	s.samples = 0
	s.haveLast = false
	s.lastT = 0
	s.ticks.Store(0)
	for i, r := range s.rows {
		switch r.kind {
		case kindCounter:
			s.prevCtr[i] = float64(r.ctr.Value())
		case kindHistogram:
			s.prevHist[i] = r.hist.State()
		}
	}
}

// Samples returns the number of samples taken since the last Reset.
func (s *Sampler) Samples() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}

// Recording reports whether SimTick can take a sample: the recorder is
// enabled and sampling is on. While it holds, nma.Sim publishes its
// counts to the catalogue before every tick.
func (s *Sampler) Recording() bool { return s.enabled.Load() && s.simEvery.Load() > 0 }

// SimTick is the simulated-time clock input, called by nma.Sim at the
// end of every refresh window it steps while Recording, with the
// window's execution time in picoseconds. Every SimEvery-th tick takes
// a sample. Ticks that do not advance the recorded timeline (a second
// simulator running behind the first) are dropped, keeping timestamps
// strictly monotonic.
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
	s.sampleLocked(nowPs)
	s.mu.Unlock()
}

// SimTickRange advances the simulated-time clock by n ticks at once:
// the first tick lands at startPs and each subsequent tick stepPs
// later, exactly as n sequential SimTick calls would. It exists for
// the NMA engine's idle fast-forward, which must publish bulk counter
// updates without desynchronizing the recorded series: advance(k) is
// invoked with a not-yet-accounted tick count immediately before each
// sample the range triggers (and once with the remainder at the end),
// so the caller publishes its coalesced counts in sample-aligned
// chunks and every sample reads exactly the counts a stepped run would
// have produced. advance is always called with chunk counts
// summing to n, even when the recorder is disabled.
func (s *Sampler) SimTickRange(startPs, stepPs, n int64, advance func(k int64)) {
	if n <= 0 {
		return
	}
	if advance == nil {
		advance = func(int64) {}
	}
	// Disabled recorders do not count ticks (SimTick returns before its
	// ticks.Add), and neither does a sampler with sampling off; mirror
	// both fast paths.
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
		// The sample lands on the rem-th skipped window, whose execution
		// time is its position in the range.
		s.mu.Lock()
		s.sampleLocked(startPs + (done-1)*stepPs)
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
	// Every row pushes its series in the same order at every sample, so
	// the k-th push of a sample feeds the k-th series; the first sample
	// after a Reset creates them.
	k := 0
	push := func(r row, suffix, kind string, v float64) {
		if k == len(s.order) {
			s.order = append(s.order, &series{name: r.name + suffix, kind: kind, metric: r.name, buf: make([]Point, s.capacity)})
		}
		s.order[k].push(Point{T: t, V: v})
		k++
	}
	for i, r := range s.rows {
		switch r.kind {
		case kindCounter:
			cur := float64(r.ctr.Value())
			push(r, "", SeriesCounter, cur-s.prevCtr[i])
			s.prevCtr[i] = cur
		case kindGauge:
			push(r, "", SeriesGauge, r.gauge.Value())
		case kindGaugeFunc:
			push(r, "", SeriesGauge, r.fn())
		case kindHistogram:
			cur := r.hist.State()
			d := cur.Delta(s.prevHist[i])
			s.prevHist[i] = cur
			push(r, "_count", SeriesHCount, float64(d.Count()))
			push(r, "_sum", SeriesHSum, d.Sum)
			push(r, "_p50", SeriesHP50, d.Quantile(0.50))
			push(r, "_p95", SeriesHP95, d.Quantile(0.95))
			push(r, "_p99", SeriesHP99, d.Quantile(0.99))
		}
	}
	s.samples++
}

// ClockSimPs is the clock name in dumps: simulated picoseconds.
const ClockSimPs = "sim-ps"

// SeriesDump is the exported view of one recorded series.
type SeriesDump struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind"`
	Metric  string  `json:"metric"`
	Dropped int64   `json:"dropped,omitempty"`
	Points  []Point `json:"points"`
}

// Dump is the time-series artifact schema (written by -timeseries-out,
// validated by telemetryck, which also prints its health verdict).
type Dump struct {
	Schema   int    `json:"schema"`
	Clock    string `json:"clock"`
	SimEvery int64  `json:"sim_every,omitempty"`
	Samples  int    `json:"samples"`
	// Ticks counts clock inputs seen (refresh windows).
	Ticks  int64        `json:"ticks,omitempty"`
	Series []SeriesDump `json:"series"`
}

// DumpSchemaVersion is the current Dump schema.
const DumpSchemaVersion = 1

// Dump snapshots every recorded series.
func (s *Sampler) Dump() *Dump {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := &Dump{
		Schema:   DumpSchemaVersion,
		Clock:    ClockSimPs,
		SimEvery: s.simEvery.Load(),
		Samples:  s.samples,
		Ticks:    s.ticks.Load(),
	}
	for _, sr := range s.order {
		d.Series = append(d.Series, SeriesDump{
			Name: sr.name, Kind: sr.kind, Metric: sr.metric,
			Dropped: sr.dropped, Points: sr.points(),
		})
	}
	return d
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
			if _, err := fmt.Fprintf(w, "%s,%d,%s\n", sr.Name, p.T, strconv.FormatFloat(p.V, 'g', -1, 64)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadDump parses a time-series artifact and rejects one no recorder
// writes: another schema, another clock, no samples or no series.
func ReadDump(r io.Reader) (*Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("telemetry: invalid time-series dump: %w", err)
	}
	switch {
	case d.Schema != DumpSchemaVersion:
		return nil, fmt.Errorf("telemetry: unsupported schema %d, want %d", d.Schema, DumpSchemaVersion)
	case d.Clock != ClockSimPs:
		return nil, fmt.Errorf("telemetry: unknown clock %q, want %s", d.Clock, ClockSimPs)
	case d.Samples <= 0:
		return nil, errors.New("telemetry: no samples recorded")
	case len(d.Series) == 0:
		return nil, errors.New("telemetry: no series recorded")
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

var (
	defaultSamplerOnce sync.Once
	defaultSampler     *Sampler
)

// DefaultSampler returns the process-wide flight recorder over the
// catalogue, disabled until a CLI (or test) enables it.
func DefaultSampler() *Sampler {
	defaultSamplerOnce.Do(func() {
		defaultSampler = NewSampler(DefaultSeriesCapacity)
	})
	return defaultSampler
}
