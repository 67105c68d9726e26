package telemetry

import (
	"encoding/json"
	"math"
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
