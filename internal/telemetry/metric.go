package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 for a counter's delta series to stay
// non-negative; this is not enforced on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset zeroes the counter (test/benchmark support).
func (c *Counter) Reset() { c.v.Store(0) }

// FloatCounter is a monotonically increasing float accumulator
// (e.g. CPU cycles), updated with a compare-and-swap loop.
type FloatCounter struct{ bits atomic.Uint64 }

// Add accumulates v.
func (c *FloatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the accumulated total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Reset zeroes the accumulator.
func (c *FloatCounter) Reset() { c.bits.Store(0) }

// Gauge is an instantaneous float value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Reset zeroes the gauge.
func (g *Gauge) Reset() { g.bits.Store(0) }

// Histogram is a fixed-bucket histogram with atomic bucket counts. It
// tracks count, sum, min, and max; quantiles are read from a State (see
// HistogramState.Quantile). NaN observations are ignored.
type Histogram struct {
	bounds []float64 // sorted inclusive upper bounds; implicit +Inf last
	counts []atomic.Int64
	count  atomic.Int64
	sum    FloatCounter
	min    atomic.Uint64 // float bits
	max    atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
	h.resetExtrema()
	return h
}

func (h *Histogram) resetExtrema() {
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
}

// Observe records one sample. NaN is dropped (it has no rank and would
// poison sum and quantiles).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v, i.e. le-bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.lowerMin(v)
	h.raiseMax(v)
}

// ObserveAll records vs exactly as len(vs) Observe calls in order
// would: the same buckets, count, min and max, and a sum folded value
// by value in order — float addition stops being associative once the
// sum passes 2^53, so a batch total added once could land on other
// bits. NaNs are dropped. Count, sum and extrema cost one atomic
// update each per call, not per value.
func (h *Histogram) ObserveAll(vs []float64) {
	var n int64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		if math.IsNaN(v) {
			continue
		}
		h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
		n++
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if n == 0 {
		return
	}
	h.count.Add(n)
	for {
		old := h.sum.bits.Load()
		sum := math.Float64frombits(old)
		for _, v := range vs {
			if !math.IsNaN(v) {
				sum += v
			}
		}
		if h.sum.bits.CompareAndSwap(old, math.Float64bits(sum)) {
			break
		}
	}
	h.lowerMin(lo)
	h.raiseMax(hi)
}

// lowerMin and raiseMax keep the earlier of two equal extrema, as a
// sequence of Observe calls does (it matters only for ±0).
func (h *Histogram) lowerMin(v float64) {
	for {
		old := h.min.Load()
		if v >= math.Float64frombits(old) || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (h *Histogram) raiseMax(v float64) {
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// HistogramState is a value snapshot of a histogram's buckets and sum,
// the unit of windowed (per-sample-interval) quantile math: the flight
// recorder subtracts two states to get the observations of one window
// without ever calling Reset on a live instrument. Count is derived
// from the buckets, so per-bucket deltas between two states taken from
// the same histogram are always ≥ 0 even while writers are running
// (each bucket is individually monotone). Sum is read separately and
// may lag or lead the buckets by in-flight observations.
type HistogramState struct {
	// Bounds aliases the histogram's sorted upper bounds; callers must
	// not mutate it.
	Bounds []float64
	// Counts holds non-cumulative per-bucket counts; the final entry is
	// the +Inf bucket.
	Counts []int64
	Sum    float64
}

// State captures the current bucket counts and sum.
func (h *Histogram) State() HistogramState {
	s := HistogramState{Bounds: h.bounds, Counts: make([]int64, len(h.counts))}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Value()
	return s
}

// Count returns the total observations in the state (the sum of the
// bucket counts).
func (s HistogramState) Count() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Mean returns Sum/Count, or 0 when empty.
//
//xfm:ignore unreachable the windowed mean TestHistogramStateDelta checks a Delta against
func (s HistogramState) Mean() float64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return s.Sum / float64(n)
}

// Delta returns the windowed view s − prev: the observations recorded
// between the two snapshots. A zero-value prev yields s itself, so the
// first window of a recording needs no special casing. The states must
// come from the same histogram (same bucket layout); a shape mismatch
// panics, as it indicates the caller mixed instruments.
func (s HistogramState) Delta(prev HistogramState) HistogramState {
	if prev.Counts == nil {
		return s
	}
	if len(prev.Counts) != len(s.Counts) {
		panic("telemetry: HistogramState.Delta across different bucket layouts")
	}
	d := HistogramState{Bounds: s.Bounds, Counts: make([]int64, len(s.Counts)), Sum: s.Sum - prev.Sum}
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	return d
}

// Quantile estimates the q-th quantile of the state's observations by
// linear interpolation inside the bucket holding the target rank
// (Prometheus histogram_quantile semantics: the lower edge of the
// first bucket is 0 when its upper bound is positive, and the +Inf
// bucket answers with the largest finite bound). Returns 0 when the
// state is empty or q is NaN.
func (s HistogramState) Quantile(q float64) float64 {
	n := s.Count()
	if n == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(n)
	cum := 0.0
	for i, c := range s.Counts {
		cum += float64(c)
		if c == 0 || cum < target {
			continue
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: the best available answer is the largest
			// finite bound.
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		upper := s.Bounds[i]
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		} else if upper <= 0 {
			lower = upper
		}
		frac := (target - (cum - float64(c))) / float64(c)
		return lower + (upper-lower)*frac
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Reset zeroes every bucket, the count, the sum, and the extrema.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Reset()
	h.resetExtrema()
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	bs := make([]float64, n)
	v := start
	for i := range bs {
		bs[i] = v
		v *= factor
	}
	return bs
}

// LinearBuckets returns n linearly spaced upper bounds starting at
// start with the given step.
func LinearBuckets(start, step float64, n int) []float64 {
	bs := make([]float64, n)
	for i := range bs {
		bs[i] = start + float64(i)*step
	}
	return bs
}
