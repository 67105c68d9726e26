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
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("c_total", "help"); again != c {
		t.Error("re-registration should return the same counter")
	}
	g := r.Gauge("g", "help")
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
	r.Counter("dup", "help")
	defer func() {
		if recover() == nil {
			t.Error("registering dup as gauge should panic")
		}
	}()
	r.Gauge("dup", "help")
}

// TestReRegisterDifferentBucketsPanics: a caller must never be handed a
// histogram whose bounds are not the ones it passed.
func TestReRegisterDifferentBucketsPanics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "help", []float64{1, 10})
	if again := r.Histogram("lat", "help", []float64{1, 10}); again != h {
		t.Error("re-registration with the same buckets should return the same histogram")
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, `"lat" re-registered with buckets`) {
			t.Errorf("re-registering lat with other buckets should panic, got %q", msg)
		}
	}()
	r.Histogram("lat", "help", []float64{1, 100})
}

// TestReRegisterGaugeFuncPanics: the second fn used to be dropped
// silently.
func TestReRegisterGaugeFuncPanics(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("rate", "help", func() float64 { return 1 })
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, `"rate" re-registered with a second gauge func`) {
			t.Errorf("re-registering rate should panic, got %q", msg)
		}
	}()
	r.GaugeFunc("rate", "help", func() float64 { return 2 })
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", LinearBuckets(10, 10, 10))

	// Empty histogram: everything zero.
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
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
	if h.Count() != 0 || h.Sum() != 0 {
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

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("swaps_total", "Swap count.").Add(100)
	r.Gauge("depth", "Queue depth.").SetInt(0)
	r.GaugeFunc("rate", "Derived.", func() float64 { return 0.25 })
	h := r.Histogram("lat_ps", "Latency.", ExpBuckets(1, 10, 3))
	h.Observe(5)
	v := r.CounterVec("by_kind_total", "By kind.", "kind")
	v.With("read").Inc()
	v.With("write").Add(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	// Every sample line must carry a value — a trailing space with no
	// value is the classic float-formatting regression.
	for i, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("line %d malformed: %q", i+1, line)
		}
	}
	for _, want := range []string{
		"swaps_total 100",
		"depth 0",
		"rate 0.25",
		`by_kind_total{kind="read"} 1`,
		`by_kind_total{kind="write"} 2`,
		`lat_ps_bucket{le="+Inf"} 1`,
		"lat_ps_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help").Inc()
	r.Histogram("h", "help", LinearBuckets(1, 1, 4)).Observe(2)
	data, err := json.Marshal(r.Snapshot())
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
			c := r.Counter("shared_total", "help")
			h := r.Histogram("shared_hist", "help", ExpBuckets(1, 2, 10))
			v := r.CounterVec("shared_vec_total", "help", "k")
			for i := 0; i < 5000; i++ {
				c.Inc()
				h.Observe(float64(i % 700))
				v.With([]string{"a", "b", "c"}[i%3]).Inc()
			}
		}()
	}
	// Concurrent readers: exposition, snapshot, quantiles.
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
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
				r.Snapshot()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := r.Counter("shared_total", "help").Value(); got != 8*5000 {
		t.Errorf("counter = %d, want %d", got, 8*5000)
	}
	if got := r.Histogram("shared_hist", "help", ExpBuckets(1, 2, 10)).Count(); got != 8*5000 {
		t.Errorf("histogram count = %d, want %d", got, 8*5000)
	}
}
