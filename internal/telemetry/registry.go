package telemetry

import (
	"fmt"
	"slices"
	"sync"
)

// Metric kinds held by a registry family.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindGaugeFunc = "gaugefunc"
	kindHistogram = "histogram"
)

// family is one named metric family: an unlabeled metric or, for a
// CounterVec, a set of counters keyed by one label value.
type family struct {
	name     string
	kind     string
	labelKey string // "" for unlabeled families
	buckets  []float64
	fn       func() float64 // kindGaugeFunc only

	mu       sync.RWMutex
	children map[string]interface{} // label value ("" when unlabeled) → metric
}

func (f *family) child(label string) interface{} {
	f.mu.RLock()
	m := f.children[label]
	f.mu.RUnlock()
	if m != nil {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if existing := f.children[label]; existing != nil {
		return existing
	}
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	case kindHistogram:
		m = newHistogram(f.buckets)
	default:
		panic(fmt.Sprintf("telemetry: family %q has no instantiable kind %q", f.name, f.kind))
	}
	f.children[label] = m
	return m
}

// Registry is a named set of metric families. The zero value is not
// usable; call NewRegistry (or use Default).
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// family returns the family, creating it on first use. Re-registering
// an existing name with a different kind, label key or bucket layout,
// or a derived gauge at all (a second fn would be dropped), panics:
// that is a programming error, caught at init time.
func (r *Registry) family(name, kind, labelKey string, buckets []float64, fn func() float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || f.labelKey != labelKey {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s/%q (was %s/%q)",
				name, kind, labelKey, f.kind, f.labelKey))
		}
		if !slices.Equal(f.buckets, buckets) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with buckets %v (was %v)",
				name, buckets, f.buckets))
		}
		if fn != nil {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a second gauge func", name))
		}
		return f
	}
	f := &family{
		name: name, kind: kind, labelKey: labelKey,
		buckets: buckets, fn: fn, children: map[string]interface{}{},
	}
	r.fams[name] = f
	return f
}

// Counter returns the registered counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return r.family(name, kindCounter, "", nil, nil).child("").(*Counter)
}

// Gauge returns the registered gauge.
func (r *Registry) Gauge(name string) *Gauge {
	return r.family(name, kindGauge, "", nil, nil).child("").(*Gauge)
}

// GaugeFunc registers a derived gauge evaluated when it is read (rates
// and ratios computed from counters).
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.family(name, kindGaugeFunc, "", nil, fn)
}

// Histogram returns the registered histogram with the given inclusive
// upper bucket bounds (a +Inf bucket is implicit).
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	return r.family(name, kindHistogram, "", buckets, nil).child("").(*Histogram)
}

// CounterVec is a counter family labeled by one key.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family.
func (r *Registry) CounterVec(name, labelKey string) *CounterVec {
	return &CounterVec{r.family(name, kindCounter, labelKey, nil, nil)}
}

// With returns the child counter for the label value.
func (v *CounterVec) With(labelValue string) *Counter {
	return v.f.child(labelValue).(*Counter)
}

// ResetAll zeroes every metric in the registry (test isolation);
// families stay registered. It copies the family list first, so a
// family lock is never held with the registry's (DESIGN §6).
//
//xfm:ignore unreachable test seam: the nma engine/storm tests and TestTimeseriesBitDeterministic (internal/xfm) zero the default registry so two recordings start from the same gauges
func (r *Registry) ResetAll() {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	for _, f := range fams {
		f.mu.RLock()
		for _, m := range f.children {
			m.(interface{ Reset() }).Reset()
		}
		f.mu.RUnlock()
	}
}

// HistogramSnapshot is the exported view of one histogram.
//
//xfm:ignore unreachable element of Snapshot: the one view that carries a histogram's min and max, which engineRun/stormRun (internal/nma) compare
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

// Snapshot is a point-in-time view of a registry. Metric keys include
// the label suffix (`name{key="value"}`) for labeled children.
//
//xfm:ignore unreachable result of Registry.Snapshot: TestFastForwardEquivalence and TestStormFastForwardEquivalence (internal/nma) compare two of them
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every metric. Values observed while writers are
// running are approximate (each field is read atomically but the set
// is not a consistent cut). Like ResetAll, it copies the family list
// before taking any family lock.
//
//xfm:ignore unreachable test seam: the nma engine/storm tests prove fast-forward ≡ stepped by comparing whole-registry snapshots, histogram min/max included (a recording has neither)
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	for _, f := range fams {
		if f.kind == kindGaugeFunc {
			s.Gauges[f.name] = f.fn()
			continue
		}
		f.mu.RLock()
		for label, m := range f.children {
			key := f.name
			if f.labelKey != "" {
				key += "{" + f.labelKey + `="` + label + `"}`
			}
			switch m := m.(type) {
			case *Counter:
				s.Counters[key] = m.Value()
			case *Gauge:
				s.Gauges[key] = m.Value()
			case *Histogram:
				st := m.State()
				s.Histograms[key] = HistogramSnapshot{
					Count: m.Count(), Sum: st.Sum, Min: m.Min(), Max: m.Max(),
					Mean: m.Mean(),
					P50:  m.Quantile(0.50), P95: m.Quantile(0.95), P99: m.Quantile(0.99),
					Bounds: st.Bounds, Counts: st.Counts,
				}
			}
		}
		f.mu.RUnlock()
	}
	return s
}
