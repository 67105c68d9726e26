package telemetry

import (
	"encoding/json"
	"math"
	"slices"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Errorf("gauge = %v, want 2.5", g.Value())
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

// TestHistogramQuantiles pins the one quantile semantics the package
// has, HistogramState.Quantile (Prometheus histogram_quantile: linear
// inside the bucket holding the rank, 0 as the first bucket's lower
// edge, the largest finite bound for the +Inf bucket), on the live
// histogram's state — the values SnapshotAll reports as P50/P95/P99.
func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram(LinearBuckets(10, 10, 10))
	q := func(q float64) float64 { return h.State().Quantile(q) }

	// Empty histogram: everything zero.
	if h.Count() != 0 || h.State().Sum != 0 || h.Mean() != 0 || q(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}

	// Single sample: quantiles spread over its bucket (20,30], not
	// onto the sample.
	h.Observe(25)
	for _, tc := range []struct{ q, want float64 }{{0, 20}, {0.5, 25}, {0.99, 29.9}, {1, 30}} {
		if got := q(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("single-sample Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}

	// NaN samples are dropped; ±Inf land in the extreme buckets, and
	// the +Inf bucket answers with the largest finite bound.
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
	if got := q(1); got != 100 {
		t.Errorf("Quantile(1) with a +Inf sample = %v, want 100", got)
	}

	h.Reset()
	if h.Count() != 0 || h.State().Sum != 0 {
		t.Error("reset histogram should be empty")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if got := q(0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := q(0.99); math.Abs(got-99) > 1e-9 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if q(math.NaN()) != 0 {
		t.Errorf("Quantile(NaN) = %v, want 0", q(math.NaN()))
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
		seq := newHistogram(ExpBuckets(1e6, 2, 18))
		all := newHistogram(ExpBuckets(1e6, 2, 18))
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
	h := newHistogram(nil)
	h.Observe(big)
	h.ObserveAll([]float64{1, 1, 1, 1})
	if got := h.State().Sum; got != big {
		t.Errorf("folded sum = %v, want %v (each +1 rounds back to 2^53)", got, float64(big))
	}
}

// TestSnapshotJSON: SnapshotAll holds every catalogue row under its
// own name, in the map its kind names, and round-trips through JSON;
// after ResetAll every stored instrument reads zero.
func TestSnapshotJSON(t *testing.T) {
	ResetAll()
	snap := SnapshotAll()
	for _, r := range catalogue {
		var ok bool
		switch r.kind {
		case kindCounter:
			var v int64
			v, ok = snap.Counters[r.name]
			ok = ok && v == 0
		case kindGauge:
			var v float64
			v, ok = snap.Gauges[r.name]
			ok = ok && v == 0
		case kindGaugeFunc:
			_, ok = snap.Gauges[r.name]
		case kindHistogram:
			var h HistogramSnapshot
			h, ok = snap.Histograms[r.name]
			ok = ok && h.Count == 0
		}
		if !ok {
			t.Errorf("%s (%s) missing from the snapshot or not reset: %+v", r.name, r.kind, snap)
		}
	}
	if n := len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms); n != len(catalogue) {
		t.Errorf("snapshot holds %d keys, want one per row (%d)", n, len(catalogue))
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(round.Counters) != len(snap.Counters) || len(round.Histograms) != len(snap.Histograms) {
		t.Errorf("round trip lost keys: %+v", round)
	}
}

// TestRegistryConcurrent hammers private rows from many goroutines
// while readers snapshot the catalogue and sample the rows, so
// `go test -race` proves the observation and sampling paths are data-race
// free.
func TestRegistryConcurrent(t *testing.T) {
	var ctr Counter
	hist := newHistogram(ExpBuckets(1, 2, 10))
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 5000; i++ {
				ctr.Inc()
				hist.Observe(float64(i % 700))
			}
		}()
	}
	// Concurrent readers: whole-catalogue snapshots and recorder
	// samples (the sampler's own clock keeps its timestamps monotonic).
	smp := newSampler(8, []row{
		{name: "shared_total", kind: kindCounter, ctr: &ctr},
		{name: "shared_hist", kind: kindHistogram, hist: hist},
	})
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
				SnapshotAll()
				smp.FinalSample()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := ctr.Value(); got != 8*5000 {
		t.Errorf("counter = %d, want %d", got, 8*5000)
	}
	if got := hist.Count(); got != 8*5000 {
		t.Errorf("histogram count = %d, want %d", got, 8*5000)
	}
}

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.min.Load())
}

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Mean returns Sum/Count, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.sum.Value() / float64(n)
}
