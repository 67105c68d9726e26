// Retired by the tooling diet (CHANGES.md, PR 17): no binary reaches
// anything declared here, so it no longer ships. It survives in a
// _test.go file only because its tests are on the suite's floor, which
// one PR may shrink by a few tests at most; delete this file together
// with the TestCounter*, TestHistogram* and TestSeries tests of stats_test.go.

package stats

import (
	"math"
	"sort"
)

// Counter is a monotonically named accumulator. The zero value is ready
// to use.
type Counter struct {
	n   int64
	sum float64
}

// Add accumulates v into the counter.
func (c *Counter) Add(v float64) {
	c.n++
	c.sum += v
}

// Inc adds 1 to the counter.
func (c *Counter) Inc() { c.Add(1) }

// N returns the number of Add calls.
func (c *Counter) N() int64 { return c.n }

// Sum returns the accumulated total.
func (c *Counter) Sum() float64 { return c.sum }

// Mean returns Sum/N, or 0 when empty.
func (c *Counter) Mean() float64 {
	if c.n == 0 {
		return 0
	}
	return c.sum / float64(c.n)
}

// Reset clears the counter.
func (c *Counter) Reset() { c.n, c.sum = 0, 0 }

// Histogram collects samples and reports order statistics. The zero
// value is ready to use.
type Histogram struct {
	samples []float64
	sorted  bool
}

// Observe records one sample. NaN is dropped: a NaN sample has no rank,
// so keeping it would poison every order statistic (sort.Float64s
// leaves NaNs in unspecified positions). ±Inf are legitimate extreme
// samples and are kept.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.samples = append(h.samples, v)
	h.sorted = false
}

// N returns the number of recorded samples.
func (h *Histogram) N() int { return len(h.samples) }

// Sum returns the total of all samples.
func (h *Histogram) Sum() float64 {
	var s float64
	for _, v := range h.samples {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.Sum() / float64(len(h.samples))
}

// Min returns the smallest sample, or 0 when empty.
func (h *Histogram) Min() float64 {
	h.sort()
	if len(h.samples) == 0 {
		return 0
	}
	return h.samples[0]
}

// Max returns the largest sample, or 0 when empty.
func (h *Histogram) Max() float64 {
	h.sort()
	if len(h.samples) == 0 {
		return 0
	}
	return h.samples[len(h.samples)-1]
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear
// interpolation between closest ranks. Returns 0 when empty or when q
// is NaN; q outside [0, 1] clamps to the extreme samples.
func (h *Histogram) Quantile(q float64) float64 {
	h.sort()
	n := len(h.samples)
	if n == 0 || math.IsNaN(q) {
		return 0
	}
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return h.samples[lo]
	}
	frac := pos - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

// Stddev returns the population standard deviation, or 0 when fewer
// than two samples exist.
func (h *Histogram) Stddev() float64 {
	n := len(h.samples)
	if n < 2 {
		return 0
	}
	m := h.Mean()
	var ss float64
	for _, v := range h.samples {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.samples = h.samples[:0]
	h.sorted = true
}

func (h *Histogram) sort() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Series is a named (x, y) sequence, the unit of a figure's line or a
// bar group.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds one point to the series.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// YAt returns the y value for the first point whose x equals x, and
// whether it was found.
func (s *Series) YAt(x float64) (float64, bool) {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i], true
		}
	}
	return 0, false
}
