package telemetry

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("c_total"); again != c {
		t.Error("re-registration should return the same counter")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-0.5)
	if g.Value() != 2 {
		t.Errorf("gauge = %v, want 2", g.Value())
	}
	g.SetInt(7)
	if g.Value() != 7 {
		t.Errorf("gauge = %v, want 7", g.Value())
	}
}

func TestFloatCounter(t *testing.T) {
	var c FloatCounter
	c.Add(1.5)
	c.Add(2.25)
	if c.Value() != 3.75 {
		t.Errorf("float counter = %v, want 3.75", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Errorf("reset float counter = %v, want 0", c.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup")
	defer func() {
		if recover() == nil {
			t.Error("registering dup as gauge should panic")
		}
	}()
	r.Gauge("dup")
}

// TestReRegisterDifferentBucketsPanics: a caller must never be handed a
// histogram whose bounds are not the ones it passed.
func TestReRegisterDifferentBucketsPanics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10})
	if again := r.Histogram("lat", []float64{1, 10}); again != h {
		t.Error("re-registration with the same buckets should return the same histogram")
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, `"lat" re-registered with buckets`) {
			t.Errorf("re-registering lat with other buckets should panic, got %q", msg)
		}
	}()
	r.Histogram("lat", []float64{1, 100})
}

// TestReRegisterGaugeFuncPanics: the second fn used to be dropped
// silently.
func TestReRegisterGaugeFuncPanics(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("rate", func() float64 { return 1 })
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, `"rate" re-registered with a second gauge func`) {
			t.Errorf("re-registering rate should panic, got %q", msg)
		}
	}()
	r.GaugeFunc("rate", func() float64 { return 2 })
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", LinearBuckets(10, 10, 10))

	// Empty histogram: everything zero.
	if h.Count() != 0 || h.State().Sum != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}

	// Single sample: every quantile collapses onto it (the bucket
	// interpolation is clamped to the observed min/max).
	h.Observe(25)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 25 {
			t.Errorf("single-sample Quantile(%v) = %v, want 25", q, got)
		}
	}

	// NaN samples are dropped; ±Inf land in the extreme buckets.
	h.Observe(math.NaN())
	if h.Count() != 1 {
		t.Errorf("NaN sample was counted: count = %d", h.Count())
	}
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	if h.Count() != 3 {
		t.Errorf("count = %d, want 3", h.Count())
	}
	if !math.IsInf(h.Max(), 1) || !math.IsInf(h.Min(), -1) {
		t.Errorf("min/max = %v/%v, want ±Inf", h.Min(), h.Max())
	}

	h.Reset()
	if h.Count() != 0 || h.State().Sum != 0 {
		t.Error("reset histogram should be empty")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	p50 := h.Quantile(0.5)
	if p50 < 40 || p50 > 60 {
		t.Errorf("p50 = %v, want ≈50", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 90 || p99 > 100 {
		t.Errorf("p99 = %v, want ≈99", p99)
	}
	if h.Quantile(math.NaN()) != 0 {
		t.Errorf("Quantile(NaN) = %v, want 0", h.Quantile(math.NaN()))
	}
}

// TestObserveAllMatchesObserve: recording a slice is bit-identical to
// the same Observe calls in order — buckets, sum, count, min, max and
// mean — including a sum that rounds past 2^53, where adding the
// batch's own total once would land on other bits.
func TestObserveAllMatchesObserve(t *testing.T) {
	const big = 1 << 53
	for _, tc := range []struct {
		name         string
		prior, batch []float64
	}{
		{"empty slice", []float64{5e6}, nil},
		{"empty slice on empty histogram", nil, []float64{}},
		{"one value", nil, []float64{3e6}},
		{"NaNs dropped", []float64{2e6}, []float64{math.NaN(), 1e6, math.NaN(), 9e6, math.NaN()}},
		{"only NaNs", []float64{2e6}, []float64{math.NaN(), math.NaN()}},
		{"several buckets and ±Inf", []float64{7e6}, []float64{1e6, 1.5e6, 3e6, 3e6, 1e12, 1e12, 2e6, math.Inf(1), math.Inf(-1)}},
		{"signed zeros keep the first extremum", []float64{0}, []float64{math.Copysign(0, -1), 0, math.Copysign(0, -1)}},
		{"sum past 2^53", []float64{big - 2}, []float64{1, 1, 1, 1, 3, 1e6, 4.4e12, 1}},
	} {
		seq := NewRegistry().Histogram("seq", ExpBuckets(1e6, 2, 18))
		all := NewRegistry().Histogram("all", ExpBuckets(1e6, 2, 18))
		for _, v := range tc.prior {
			seq.Observe(v)
			all.Observe(v)
		}
		for _, v := range tc.batch {
			seq.Observe(v)
		}
		all.ObserveAll(tc.batch)

		bits := math.Float64bits
		ws, gs := seq.State(), all.State()
		if bits(ws.Sum) != bits(gs.Sum) || !slices.Equal(ws.Counts, gs.Counts) {
			t.Errorf("%s: State = %v sum %v, want %v sum %v", tc.name, gs.Counts, gs.Sum, ws.Counts, ws.Sum)
		}
		if seq.Count() != all.Count() || bits(seq.Min()) != bits(all.Min()) ||
			bits(seq.Max()) != bits(all.Max()) || bits(seq.Mean()) != bits(all.Mean()) {
			t.Errorf("%s: count/min/max/mean = %d/%v/%v/%v, want %d/%v/%v/%v", tc.name,
				all.Count(), all.Min(), all.Max(), all.Mean(), seq.Count(), seq.Min(), seq.Max(), seq.Mean())
		}
	}

	// The 2^53 case has teeth: the batch's total added once rounds
	// differently from the values folded one by one.
	h := NewRegistry().Histogram("h", nil)
	h.Observe(big)
	h.ObserveAll([]float64{1, 1, 1, 1})
	if got := h.State().Sum; got != big {
		t.Errorf("folded sum = %v, want %v (each +1 rounds back to 2^53)", got, float64(big))
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Inc()
	r.Histogram("h", LinearBuckets(1, 1, 4)).Observe(2)
	r.CounterVec("ops_total", "kind").With("read").Add(3)
	snap := r.Snapshot()
	if got := snap.Counters[`ops_total{kind="read"}`]; got != 3 {
		t.Errorf("labeled child = %d under %v, want 3 under ops_total{kind=\"read\"}", got, snap.Counters)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var round map[string]interface{}
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines so
// `go test -race` proves the registration and observation paths are
// data-race free.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			c := r.Counter("shared_total")
			h := r.Histogram("shared_hist", ExpBuckets(1, 2, 10))
			v := r.CounterVec("shared_vec_total", "k")
			for i := 0; i < 5000; i++ {
				c.Inc()
				h.Observe(float64(i % 700))
				v.With([]string{"a", "b", "c"}[i%3]).Inc()
			}
		}()
	}
	// Concurrent readers: whole-registry snapshots and recorder
	// samples (the sampler's own clock keeps its timestamps monotonic).
	smp := NewSampler(r, 8, "shared_total", "shared_hist", "shared_vec_total")
	smp.Reset()
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Snapshot()
				smp.FinalSample()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := r.Counter("shared_total").Value(); got != 8*5000 {
		t.Errorf("counter = %d, want %d", got, 8*5000)
	}
	if got := r.Histogram("shared_hist", ExpBuckets(1, 2, 10)).Count(); got != 8*5000 {
		t.Errorf("histogram count = %d, want %d", got, 8*5000)
	}
}
