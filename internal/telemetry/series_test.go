package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestHistogramStateDelta(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(5)
	first := h.State()
	if got := first.Count(); got != 3 {
		t.Fatalf("first.Count() = %d, want 3", got)
	}
	// Zero-value prev yields the state itself.
	d0 := first.Delta(HistogramState{})
	if d0.Count() != 3 || d0.Sum != first.Sum {
		t.Fatalf("delta against zero prev = %+v, want %+v", d0, first)
	}

	h.Observe(50)
	h.Observe(500) // +Inf bucket
	second := h.State()
	d := second.Delta(first)
	if got := d.Count(); got != 2 {
		t.Fatalf("windowed Count = %d, want 2", got)
	}
	if got, want := d.Sum, 550.0; got != want {
		t.Fatalf("windowed Sum = %g, want %g", got, want)
	}
	// Window holds one observation in (10,100] and one in +Inf.
	if d.Counts[2] != 1 || d.Counts[3] != 1 {
		t.Fatalf("windowed Counts = %v, want [0 0 1 1]", d.Counts)
	}
	if got, want := d.Mean(), 275.0; got != want {
		t.Fatalf("windowed Mean = %g, want %g", got, want)
	}
}

func TestHistogramStateDeltaLayoutMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Delta across bucket layouts did not panic")
		}
	}()
	a := newHistogram([]float64{1, 2}).State()
	b := newHistogram([]float64{1, 2, 3}).State()
	b.Delta(a)
}

func TestHistogramStateQuantile(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30})
	for i := 0; i < 10; i++ {
		h.Observe(5) // (0,10]
	}
	for i := 0; i < 10; i++ {
		h.Observe(15) // (10,20]
	}
	s := h.State()
	// Median rank lands exactly on the first bucket's upper edge.
	if got := s.Quantile(0.5); got != 10 {
		t.Fatalf("p50 = %g, want 10", got)
	}
	// p95 interpolates inside (10,20].
	if got := s.Quantile(0.95); got <= 10 || got > 20 {
		t.Fatalf("p95 = %g, want in (10,20]", got)
	}
	if got := s.Quantile(0); got < 0 || got > 10 {
		t.Fatalf("p0 = %g, want in [0,10]", got)
	}
	// Empty state answers 0.
	if got := (HistogramState{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %g, want 0", got)
	}
	// +Inf-only mass answers the largest finite bound.
	h2 := newHistogram([]float64{1, 2})
	h2.Observe(100)
	if got := h2.State().Quantile(0.99); got != 2 {
		t.Fatalf("+Inf quantile = %g, want 2", got)
	}
}

// TestHistogramStateConcurrentConsistency hammers Observe while taking
// State snapshots and checks the windowed-view invariants the flight
// recorder depends on: per-bucket deltas are never negative (each
// bucket is individually monotone), derived counts never run
// backwards, and windowed quantiles stay within the bucket range.
func TestHistogramStateConcurrentConsistency(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8, 16})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			x := uint64(seed)*2654435761 + 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				x = x*6364136223846793005 + 1442695040888963407
				h.Observe(float64(x%20) + 0.5)
			}
		}(w + 1)
	}

	prev := HistogramState{}
	for i := 0; i < 2000; i++ {
		cur := h.State()
		d := cur.Delta(prev)
		for b, c := range d.Counts {
			if c < 0 {
				t.Errorf("snapshot %d: bucket %d delta %d < 0", i, b, c)
			}
		}
		if n := d.Count(); n < 0 {
			t.Errorf("snapshot %d: windowed count %d < 0", i, n)
		} else if n > 0 {
			for _, q := range []float64{0.5, 0.95, 0.99} {
				v := d.Quantile(q)
				if v < 0 || v > 16 {
					t.Errorf("snapshot %d: q%.2f = %g outside [0, 16]", i, q, v)
				}
			}
		}
		prev = cur
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// Quiesced: the final state agrees with the atomic total count.
	final := h.State()
	if got, want := final.Count(), h.Count(); got != want {
		t.Fatalf("quiesced State Count = %d, want %d", got, want)
	}
}

func TestSamplerCountersGaugesHistograms(t *testing.T) {
	ctr, g, h := &Counter{}, &Gauge{}, newHistogram([]float64{10, 100})
	ctr.Add(5) // pre-recording activity must not leak into window 1
	s := newSampler(8, []row{
		{name: "test_ops_total", kind: kindCounter, ctr: ctr},
		{name: "test_depth", kind: kindGauge, gauge: g},
		{name: "test_rate", kind: kindGaugeFunc, fn: func() float64 { return 0.25 }},
		{name: "test_lat", kind: kindHistogram, hist: h},
	})
	s.Reset()
	s.SetEnabled(true)

	ctr.Add(3)
	g.Set(7)
	h.Observe(5)
	h.Observe(50)
	s.Sample(100)

	ctr.Add(2)
	g.Set(9)
	s.Sample(200)

	d := s.Dump()
	if d.Samples != 2 {
		t.Fatalf("Samples = %d, want 2", d.Samples)
	}
	idx := d.Index()
	wantSeries := map[string][]Point{
		"test_ops_total": {{T: 100, V: 3}, {T: 200, V: 2}},
		"test_depth":     {{T: 100, V: 7}, {T: 200, V: 9}},
		"test_rate":      {{T: 100, V: 0.25}, {T: 200, V: 0.25}},
		"test_lat_count": {{T: 100, V: 2}, {T: 200, V: 0}},
		"test_lat_sum":   {{T: 100, V: 55}, {T: 200, V: 0}},
	}
	for name, want := range wantSeries {
		got := idx[name]
		if len(got) != len(want) {
			t.Fatalf("series %s = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("series %s[%d] = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
	// Quantile series exist and the first window's p50 is in-range.
	p50 := idx["test_lat_p50"]
	if len(p50) != 2 || p50[0].V <= 0 || p50[0].V > 100 {
		t.Fatalf("test_lat_p50 = %v, want 2 points with first in (0,100]", p50)
	}
	// Series follow row order; kinds are labeled for downstream
	// validators.
	var names []string
	kinds := map[string]string{}
	for _, sr := range d.Series {
		names = append(names, sr.Name)
		kinds[sr.Name] = sr.Kind
	}
	wantNames := "test_ops_total test_depth test_rate test_lat_count test_lat_sum test_lat_p50 test_lat_p95 test_lat_p99"
	if got := strings.Join(names, " "); got != wantNames {
		t.Fatalf("series order = %s, want %s", got, wantNames)
	}
	if kinds["test_ops_total"] != SeriesCounter || kinds["test_depth"] != SeriesGauge ||
		kinds["test_rate"] != SeriesGauge || kinds["test_lat_p99"] != SeriesHP99 {
		t.Fatalf("unexpected kinds: %v", kinds)
	}
}

func TestSamplerMonotonicTimestampsAndReset(t *testing.T) {
	ctr := &Counter{}
	s := newSampler(8, []row{{name: "test_ops_total", kind: kindCounter, ctr: ctr}})
	s.Reset()
	s.SetEnabled(true)

	ctr.Add(1)
	s.Sample(100)
	ctr.Add(1)
	s.Sample(50) // behind the timeline: dropped
	s.Sample(100)
	if got := s.Samples(); got != 1 {
		t.Fatalf("Samples after non-monotonic inputs = %d, want 1", got)
	}
	s.Sample(150)
	idx := s.Dump().Index()
	pts := idx["test_ops_total"]
	if len(pts) != 2 || pts[1] != (Point{T: 150, V: 1}) {
		t.Fatalf("points = %v, want delta 1 at t=150", pts)
	}

	// Reset re-baselines: activity before the reset never shows up.
	ctr.Add(10)
	s.Reset()
	ctr.Add(2)
	s.Sample(1) // timeline restarted, small t is fine after Reset
	idx = s.Dump().Index()
	if got := idx["test_ops_total"]; len(got) != 1 || got[0].V != 2 {
		t.Fatalf("post-reset points = %v, want single delta 2", got)
	}
}

func TestSamplerRingOverflow(t *testing.T) {
	g := &Gauge{}
	s := newSampler(4, []row{{name: "test_depth", kind: kindGauge, gauge: g}})
	s.Reset()
	s.SetEnabled(true)
	for i := 1; i <= 10; i++ {
		g.Set(float64(i))
		s.Sample(int64(i))
	}
	d := s.Dump()
	sr := d.Series[0]
	if sr.Dropped != 6 {
		t.Fatalf("Dropped = %d, want 6", sr.Dropped)
	}
	if len(sr.Points) != 4 || sr.Points[0].T != 7 || sr.Points[3].T != 10 {
		t.Fatalf("ring kept %v, want t=7..10", sr.Points)
	}
}

func TestSamplerSimTick(t *testing.T) {
	ctr := &Counter{}
	s := newSampler(8, []row{{name: "test_ops_total", kind: kindCounter, ctr: ctr}})
	s.SetSimEvery(4)
	s.Reset()

	// Disabled: ticks are ignored entirely.
	for i := 0; i < 16; i++ {
		s.SimTick(int64(i))
	}
	if got := s.Samples(); got != 0 {
		t.Fatalf("disabled sampler took %d samples", got)
	}

	s.SetEnabled(true)
	for i := 1; i <= 9; i++ {
		ctr.Inc()
		s.SimTick(int64(i * 1000))
	}
	// Ticks 4 and 8 sample (every 4th).
	if got := s.Samples(); got != 2 {
		t.Fatalf("Samples = %d, want 2", got)
	}
	idx := s.Dump().Index()
	pts := idx["test_ops_total"]
	if len(pts) != 2 || pts[0] != (Point{T: 4000, V: 4}) || pts[1] != (Point{T: 8000, V: 4}) {
		t.Fatalf("points = %v, want deltas of 4 at t=4000, 8000", pts)
	}

	// FinalSample flushes the tail window (tick 9's increment plus one
	// more).
	ctr.Inc()
	s.FinalSample()
	pts = s.Dump().Index()["test_ops_total"]
	if len(pts) != 3 || pts[2] != (Point{T: 8001, V: 2}) {
		t.Fatalf("after FinalSample points = %v, want tail delta 2 at t=8001", pts)
	}
}

func TestSamplerDumpRoundTrip(t *testing.T) {
	ctr := &Counter{}
	s := newSampler(8, []row{{name: "test_ops_total", kind: kindCounter, ctr: ctr}})
	s.Reset()
	s.SetEnabled(true)
	ctr.Add(2)
	s.Sample(10)
	ctr.Add(4)
	s.Sample(20)

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Schema != DumpSchemaVersion || d.Clock != ClockSimPs || d.Samples != 2 {
		t.Fatalf("round-tripped header = %+v", d)
	}
	pts := d.Index()["test_ops_total"]
	if len(pts) != 2 || pts[0] != (Point{T: 10, V: 2}) || pts[1] != (Point{T: 20, V: 4}) {
		t.Fatalf("round-tripped points = %v", pts)
	}
}

// TestReadDumpRejectsForeignRecordings: the one reader of recordings
// refuses what no recorder writes, so telemetryck's -timeseries and
// -diff cannot pass an empty or foreign file or give it a verdict.
func TestReadDumpRejectsForeignRecordings(t *testing.T) {
	const series = `"series":[{"name":"s","kind":"counter","metric":"s","points":[{"t":1,"v":2}]}]`
	for _, tc := range []struct {
		name, json, want string
	}{
		{"valid", `{"schema":1,"clock":"sim-ps","samples":1,` + series + `}`, ""},
		{"empty object", `{}`, "unsupported schema 0"},
		{"other schema", `{"schema":7,"clock":"sim-ps","samples":1,` + series + `}`, "unsupported schema 7, want 1"},
		{"wall clock", `{"schema":1,"clock":"wall","samples":1,` + series + `}`, `unknown clock "wall"`},
		{"no samples", `{"schema":1,"clock":"sim-ps","samples":0,` + series + `}`, "no samples recorded"},
		{"no series", `{"schema":1,"clock":"sim-ps","samples":1,"series":[]}`, "no series recorded"},
		{"not json", `not json`, "invalid time-series dump"},
	} {
		d, err := ReadDump(strings.NewReader(tc.json))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: ReadDump = %v, want a dump", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: ReadDump = %+v, %v; want an error containing %q", tc.name, d, err, tc.want)
		}
	}
}

// TestDefaultSeriesMetricsResolve: every catalogue row holds exactly
// one instrument, the one its kind names, under a unique name on the
// convention — what the sampler, SnapshotAll and ResetAll dispatch on.
func TestDefaultSeriesMetricsResolve(t *testing.T) {
	if len(catalogue) == 0 {
		t.Fatal("empty catalogue")
	}
	seen := map[string]bool{}
	for _, r := range catalogue {
		if seen[r.name] {
			t.Errorf("duplicate catalogue row %q", r.name)
		}
		seen[r.name] = true
		if !metricNameRE.MatchString(r.name) {
			t.Errorf("row name %q violates %s", r.name, metricNameRE)
		}
		have := map[string]bool{
			kindCounter:   r.ctr != nil,
			kindGauge:     r.gauge != nil,
			kindGaugeFunc: r.fn != nil,
			kindHistogram: r.hist != nil,
		}
		for kind, set := range have {
			if set != (kind == r.kind) {
				t.Errorf("row %s of kind %s: %s instrument set = %v", r.name, r.kind, kind, set)
			}
		}
		if _, known := have[r.kind]; !known {
			t.Errorf("row %s has unknown kind %q", r.name, r.kind)
		}
	}
}

// Sample takes one sample at timestamp t (simulated picoseconds).
// Non-monotonic timestamps are dropped.
func (s *Sampler) Sample(t int64) {
	s.mu.Lock()
	s.sampleLocked(t)
	s.mu.Unlock()
}
