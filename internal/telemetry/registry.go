package telemetry

import "math"

// Two test seams over the catalogue's instruments: ResetAll zeroes
// them, SnapshotAll reads them. Every instrument is atomic, so neither
// takes a lock.

// ResetAll zeroes every catalogue instrument (test isolation).
//
//xfm:ignore unreachable test seam: the nma fast-forward equivalence tests (ffRun) and TestTimeseriesBitDeterministic (internal/xfm) zero the catalogue so two recordings start from the same gauges
func ResetAll() {
	for _, r := range catalogue {
		switch r.kind {
		case kindCounter:
			r.ctr.Reset()
		case kindGauge:
			r.gauge.Reset()
		case kindHistogram:
			r.hist.Reset()
		}
	}
}

// HistogramSnapshot is the exported view of one histogram.
//
//xfm:ignore unreachable element of Snapshot: the one view that carries a histogram's min and max, which the nma fast-forward equivalence tests (requireFFEquivalent) compare
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Mean   float64   `json:"mean"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
}

// Snapshot is a point-in-time view of the catalogue, keyed by row name.
//
//xfm:ignore unreachable result of SnapshotAll: TestFastForwardEquivalence and TestStormFastForwardEquivalence (internal/nma) compare two of them
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// SnapshotAll captures every catalogue row. Values observed while
// writers are running are approximate (each field is read atomically
// but the set is not a consistent cut).
//
//xfm:ignore unreachable test seam: the nma fast-forward equivalence tests (requireFFEquivalent) prove fast-forward ≡ stepped by comparing whole-catalogue snapshots, histogram min/max included (a recording has neither)
func SnapshotAll() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, r := range catalogue {
		switch r.kind {
		case kindCounter:
			s.Counters[r.name] = r.ctr.Value()
		case kindGauge:
			s.Gauges[r.name] = r.gauge.Value()
		case kindGaugeFunc:
			s.Gauges[r.name] = r.fn()
		case kindHistogram:
			h, st := r.hist, r.hist.State()
			hs := HistogramSnapshot{
				Count: h.Count(), Sum: st.Sum,
				P50: st.Quantile(0.50), P95: st.Quantile(0.95), P99: st.Quantile(0.99),
				Bounds: st.Bounds, Counts: st.Counts,
			}
			if hs.Count > 0 {
				hs.Min = math.Float64frombits(h.min.Load())
				hs.Max = math.Float64frombits(h.max.Load())
				hs.Mean = h.sum.Value() / float64(hs.Count)
			}
			s.Histograms[r.name] = hs
		}
	}
	return s
}
