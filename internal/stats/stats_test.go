package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.N() != 0 || c.Sum() != 0 || c.Mean() != 0 {
		t.Fatalf("zero counter not zero: n=%d sum=%v mean=%v", c.N(), c.Sum(), c.Mean())
	}
	c.Add(2)
	c.Add(4)
	c.Inc()
	if c.N() != 3 {
		t.Errorf("N = %d, want 3", c.N())
	}
	if c.Sum() != 7 {
		t.Errorf("Sum = %v, want 7", c.Sum())
	}
	if got := c.Mean(); math.Abs(got-7.0/3) > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, 7.0/3)
	}
	c.Reset()
	if c.N() != 0 || c.Sum() != 0 {
		t.Errorf("Reset did not clear counter")
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.N() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 || h.Stddev() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramOrderStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Observe(v)
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Errorf("min/max = %v/%v, want 1/5", h.Min(), h.Max())
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 5 {
		t.Errorf("q1 = %v, want 5", got)
	}
	if got := h.Quantile(0.25); got != 2 {
		t.Errorf("q0.25 = %v, want 2", got)
	}
	if got := h.Mean(); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

func TestHistogramStddev(t *testing.T) {
	var h Histogram
	h.Observe(2)
	h.Observe(4)
	h.Observe(4)
	h.Observe(4)
	h.Observe(5)
	h.Observe(5)
	h.Observe(7)
	h.Observe(9)
	if got := h.Stddev(); math.Abs(got-2) > 1e-12 {
		t.Errorf("stddev = %v, want 2", got)
	}
}

func TestHistogramObserveAfterSort(t *testing.T) {
	var h Histogram
	h.Observe(10)
	_ = h.Min() // forces sort
	h.Observe(1)
	if h.Min() != 1 {
		t.Errorf("Min after post-sort Observe = %v, want 1", h.Min())
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(vals []float64, a, b float64) bool {
		var h Histogram
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			h.Observe(v)
		}
		qa := math.Mod(math.Abs(a), 1)
		qb := math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		return h.Quantile(qa) <= h.Quantile(qb)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "xfm"
	s.Append(1, 10)
	s.Append(2, 20)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if y, ok := s.YAt(2); !ok || y != 20 {
		t.Errorf("YAt(2) = %v,%v; want 20,true", y, ok)
	}
	if _, ok := s.YAt(3); ok {
		t.Errorf("YAt(3) should not be found")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	tb.AddRowf("gamma", 7)
	out := tb.String()
	if !strings.Contains(out, "Table X") {
		t.Errorf("missing title in %q", out)
	}
	for _, want := range []string{"alpha", "beta", "2.5", "gamma", "7"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in rendered table:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + rule + 3 rows
	if len(lines) != 6 {
		t.Errorf("rendered %d lines, want 6:\n%s", len(lines), out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("1", "2", "3")
	out := tb.String()
	if !strings.Contains(out, "3") {
		t.Errorf("extra cells dropped: %q", out)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(7)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Errorf("Quantile(%v) = %v, want 7", q, got)
		}
	}
	if h.Min() != 7 || h.Max() != 7 || h.Mean() != 7 || h.Stddev() != 0 {
		t.Errorf("single-sample stats wrong: min=%v max=%v mean=%v stddev=%v",
			h.Min(), h.Max(), h.Mean(), h.Stddev())
	}
}

func TestHistogramDropsNaN(t *testing.T) {
	var h Histogram
	h.Observe(math.NaN())
	if h.N() != 0 {
		t.Fatalf("NaN sample was kept: N = %d", h.N())
	}
	h.Observe(1)
	h.Observe(math.NaN())
	h.Observe(3)
	if h.N() != 2 {
		t.Fatalf("N = %d, want 2", h.N())
	}
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if math.IsNaN(h.Sum()) || math.IsNaN(h.Mean()) || math.IsNaN(h.Stddev()) {
		t.Error("aggregate stats contaminated by NaN")
	}
}

func TestHistogramInfSamples(t *testing.T) {
	var h Histogram
	h.Observe(math.Inf(1))
	h.Observe(0)
	h.Observe(math.Inf(-1))
	if !math.IsInf(h.Min(), -1) {
		t.Errorf("Min = %v, want -Inf", h.Min())
	}
	if !math.IsInf(h.Max(), 1) {
		t.Errorf("Max = %v, want +Inf", h.Max())
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("median = %v, want 0", got)
	}
	if !math.IsInf(h.Quantile(1), 1) || !math.IsInf(h.Quantile(0), -1) {
		t.Error("extreme quantiles should hit the Inf samples")
	}
}

func TestHistogramQuantileEdgeArgs(t *testing.T) {
	var h Histogram
	h.Observe(1)
	h.Observe(2)
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Errorf("Quantile(NaN) = %v, want 0", got)
	}
	if got := h.Quantile(-0.5); got != 1 {
		t.Errorf("Quantile(-0.5) = %v, want clamp to min 1", got)
	}
	if got := h.Quantile(1.5); got != 2 {
		t.Errorf("Quantile(1.5) = %v, want clamp to max 2", got)
	}
}
