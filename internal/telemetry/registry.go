package telemetry

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Metric kinds held by a registry family.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindGaugeFunc = "gaugefunc"
	kindHistogram = "histogram"
)

// family is one named metric family: an unlabeled metric or a set of
// children keyed by one label value.
type family struct {
	name     string
	help     string
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

// sortedLabels returns the label values in deterministic order.
func (f *family) sortedLabels() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.children))
	for k := range f.children {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
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
func (r *Registry) family(name, help, kind, labelKey string, buckets []float64, fn func() float64) *family {
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
		name: name, help: help, kind: kind, labelKey: labelKey,
		buckets: buckets, fn: fn, children: map[string]interface{}{},
	}
	r.fams[name] = f
	return f
}

// Counter returns the registered counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, kindCounter, "", nil, nil).child("").(*Counter)
}

// Gauge returns the registered gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, kindGauge, "", nil, nil).child("").(*Gauge)
}

// GaugeFunc registers a derived gauge evaluated at export time (rates
// and ratios computed from counters).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, kindGaugeFunc, "", nil, fn)
}

// Histogram returns the registered histogram with the given inclusive
// upper bucket bounds (a +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.family(name, help, kindHistogram, "", buckets, nil).child("").(*Histogram)
}

// CounterVec is a counter family labeled by one key.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, labelKey, nil, nil)}
}

// With returns the child counter for the label value.
func (v *CounterVec) With(labelValue string) *Counter {
	return v.f.child(labelValue).(*Counter)
}

// GaugeVec is a gauge family labeled by one key.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family.
func (r *Registry) GaugeVec(name, help, labelKey string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, labelKey, nil, nil)}
}

// With returns the child gauge for the label value.
func (v *GaugeVec) With(labelValue string) *Gauge {
	return v.f.child(labelValue).(*Gauge)
}

// HistogramVec is a histogram family labeled by one key.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family.
func (r *Registry) HistogramVec(name, help, labelKey string, buckets []float64) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, labelKey, buckets, nil)}
}

// With returns the child histogram for the label value.
func (v *HistogramVec) With(labelValue string) *Histogram {
	return v.f.child(labelValue).(*Histogram)
}

// ResetAll zeroes every metric in the registry (test isolation);
// families stay registered. Like the exporters, it copies the family
// list first, so a family lock is never held with the registry's
// (DESIGN §6).
//
//xfm:ignore unreachable test seam: the nma engine/storm tests and TestTimeseriesBitDeterministic (internal/xfm) zero the default registry so two recordings start from the same gauges
func (r *Registry) ResetAll() {
	for _, f := range r.sortedFamilies() {
		f.mu.RLock()
		for _, m := range f.children {
			switch m := m.(type) {
			case *Counter:
				m.Reset()
			case *Gauge:
				m.Reset()
			case *Histogram:
				m.Reset()
			}
		}
		f.mu.RUnlock()
	}
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// promLabels renders {key="value"} (or "" when unlabeled), optionally
// merging an extra le pair for histogram buckets.
func promLabels(key, value, extraKey, extraValue string) string {
	var parts []string
	if key != "" {
		parts = append(parts, fmt.Sprintf(`%s="%s"`, key, escapeLabel(value)))
	}
	if extraKey != "" {
		parts = append(parts, fmt.Sprintf(`%s="%s"`, extraKey, escapeLabel(extraValue)))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the whole registry in the Prometheus text
// exposition format (version 0.0.4). Histograms emit cumulative
// le-buckets plus _sum and _count, and additionally estimated
// <name>_p50 / _p95 / _p99 quantile samples (untyped) so a scrape of a
// single benchmark run carries latency percentiles without a server.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		typ := f.kind
		if f.kind == kindGaugeFunc {
			typ = "gauge"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, typ); err != nil {
			return err
		}
		if f.kind == kindGaugeFunc {
			if _, err := fmt.Fprintf(w, "%s %s\n", f.name, promFloat(f.fn())); err != nil {
				return err
			}
			continue
		}
		var quantileLines []string
		for _, label := range f.sortedLabels() {
			f.mu.RLock()
			m := f.children[label]
			f.mu.RUnlock()
			ls := promLabels(f.labelKey, label, "", "")
			var err error
			switch m := m.(type) {
			case *Counter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, ls, m.Value())
			case *Gauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, ls, promFloat(m.Value()))
			case *Histogram:
				bounds, counts := m.Buckets()
				cum := int64(0)
				for i, b := range bounds {
					cum += counts[i]
					if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n",
						f.name, promLabels(f.labelKey, label, "le", promFloat(b)), cum); err != nil {
						return err
					}
				}
				cum += counts[len(counts)-1]
				if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n",
					f.name, promLabels(f.labelKey, label, "le", "+Inf"), cum); err != nil {
					return err
				}
				if _, err = fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
					f.name, ls, promFloat(m.Sum()), f.name, ls, m.Count()); err != nil {
					return err
				}
				for _, q := range []struct {
					suffix string
					q      float64
				}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
					quantileLines = append(quantileLines, fmt.Sprintf("%s_%s%s %s\n",
						f.name, q.suffix, ls, promFloat(m.Quantile(q.q))))
				}
			}
			if err != nil {
				return err
			}
		}
		// Quantile samples are distinct (untyped) metrics; they follow
		// the histogram block so each family's samples stay contiguous.
		for _, line := range quantileLines {
			if _, err := io.WriteString(w, line); err != nil {
				return err
			}
		}
	}
	return nil
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
// is not a consistent cut).
//
//xfm:ignore unreachable test seam: the nma engine/storm tests prove fast-forward ≡ stepped by comparing whole-registry snapshots, histogram min/max included (Prometheus text has neither)
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, f := range r.sortedFamilies() {
		if f.kind == kindGaugeFunc {
			s.Gauges[f.name] = f.fn()
			continue
		}
		for _, label := range f.sortedLabels() {
			f.mu.RLock()
			m := f.children[label]
			f.mu.RUnlock()
			key := f.name + promLabels(f.labelKey, label, "", "")
			switch m := m.(type) {
			case *Counter:
				s.Counters[key] = m.Value()
			case *Gauge:
				s.Gauges[key] = m.Value()
			case *Histogram:
				bounds, counts := m.Buckets()
				s.Histograms[key] = HistogramSnapshot{
					Count: m.Count(), Sum: m.Sum(), Min: m.Min(), Max: m.Max(),
					Mean: m.Mean(),
					P50:  m.Quantile(0.50), P95: m.Quantile(0.95), P99: m.Quantile(0.99),
					Bounds: bounds, Counts: counts,
				}
			}
		}
	}
	return s
}
