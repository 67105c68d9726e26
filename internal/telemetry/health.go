package telemetry

import (
	"math"
	"sync"
)

// The health monitor: declarative rules evaluated over the flight
// recorder's series windows, folding trajectories into one
// OK/DEGRADED/CRITICAL verdict with firing-rule details. Rules are
// pure functions of a Dump, so the same set runs server-side on
// /debug/health and client-side in xfmtop over a recorded file.

// Severity orders health outcomes; the overall status is the worst
// firing rule's severity.
type Severity int

// Severity levels.
const (
	SevOK Severity = iota
	SevDegraded
	SevCritical
)

func (s Severity) String() string {
	switch s {
	case SevDegraded:
		return "DEGRADED"
	case SevCritical:
		return "CRITICAL"
	default:
		return "OK"
	}
}

// Agg folds a series window into one value.
type Agg int

// Window aggregations.
const (
	AggLast Agg = iota
	AggSum
	AggMean
	AggMax
	AggMin
)

// SeriesIndex is the evaluation input: series name → points, oldest
// first (see Dump.Index).
type SeriesIndex map[string][]Point

// Expr computes one scalar from a SeriesIndex. ok=false means the
// value is undefined (series missing, empty window, zero denominator)
// and any rule built on it stays inactive rather than firing.
type Expr interface {
	Eval(idx SeriesIndex) (v float64, ok bool)
}

type seriesExpr struct {
	name   string
	agg    Agg
	window int
}

// SeriesExpr aggregates the last window points of the named series
// (window ≤ 0 takes the whole recording).
func SeriesExpr(name string, agg Agg, window int) Expr {
	return seriesExpr{name: name, agg: agg, window: window}
}

func (e seriesExpr) Eval(idx SeriesIndex) (float64, bool) {
	pts := idx[e.name]
	if len(pts) == 0 {
		return 0, false
	}
	if e.window > 0 && len(pts) > e.window {
		pts = pts[len(pts)-e.window:]
	}
	switch e.agg {
	case AggLast:
		return pts[len(pts)-1].V, true
	case AggSum, AggMean:
		sum := 0.0
		for _, p := range pts {
			sum += p.V
		}
		if e.agg == AggMean {
			return sum / float64(len(pts)), true
		}
		return sum, true
	case AggMax:
		v := math.Inf(-1)
		for _, p := range pts {
			if p.V > v {
				v = p.V
			}
		}
		return v, true
	case AggMin:
		v := math.Inf(1)
		for _, p := range pts {
			if p.V < v {
				v = p.V
			}
		}
		return v, true
	}
	return 0, false
}

type constExpr float64

// ConstExpr is always defined with the given value; combined with
// AddExpr it builds thresholded guards ("active only when the window
// saw more than N swaps").
func ConstExpr(v float64) Expr { return constExpr(v) }

func (e constExpr) Eval(SeriesIndex) (float64, bool) { return float64(e), true }

type addExpr struct{ xs []Expr }

// AddExpr sums its sub-expressions; undefined if any of them is.
func AddExpr(xs ...Expr) Expr { return addExpr{xs} }

func (e addExpr) Eval(idx SeriesIndex) (float64, bool) {
	sum := 0.0
	for _, x := range e.xs {
		v, ok := x.Eval(idx)
		if !ok {
			return 0, false
		}
		sum += v
	}
	return sum, true
}

type ratioExpr struct{ num, den Expr }

// RatioExpr divides num by den; undefined when den is 0 or either side
// is undefined, so rate rules stay silent on idle systems instead of
// firing on 0/0.
func RatioExpr(num, den Expr) Expr { return ratioExpr{num, den} }

func (e ratioExpr) Eval(idx SeriesIndex) (float64, bool) {
	n, ok := e.num.Eval(idx)
	if !ok {
		return 0, false
	}
	d, ok := e.den.Eval(idx)
	if !ok || d == 0 {
		return 0, false
	}
	return n / d, true
}

// Rule is one declarative health check: fire at Severity when Value
// compares Above/below Threshold. A non-nil Guard gates the rule: it
// is active only while the guard evaluates defined and > 0 (e.g. "the
// queue actually holds work"), which keeps utilization rules from
// crying wolf on idle systems.
type Rule struct {
	Name      string
	Help      string
	Value     Expr
	Above     bool // true: fire when value > threshold; false: when <
	Threshold float64
	Severity  Severity
	Guard     Expr
}

// CheckResult is one rule's evaluation.
type CheckResult struct {
	Rule      string  `json:"rule"`
	Help      string  `json:"help,omitempty"`
	Severity  string  `json:"severity"`
	Active    bool    `json:"active"`
	Firing    bool    `json:"firing"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
}

// Check evaluates the rule against the index.
func (r Rule) Check(idx SeriesIndex) CheckResult {
	res := CheckResult{Rule: r.Name, Help: r.Help, Severity: r.Severity.String(), Threshold: r.Threshold}
	if r.Guard != nil {
		g, ok := r.Guard.Eval(idx)
		if !ok || g <= 0 {
			return res
		}
	}
	v, ok := r.Value.Eval(idx)
	if !ok {
		return res
	}
	res.Active = true
	res.Value = v
	if r.Above {
		res.Firing = v > r.Threshold
	} else {
		res.Firing = v < r.Threshold
	}
	return res
}

// Health is the monitor's verdict: the worst firing severity plus
// every rule's evaluation.
type Health struct {
	Status  string        `json:"status"`
	Code    int           `json:"code"` // 0 OK, 1 DEGRADED, 2 CRITICAL
	Samples int           `json:"samples"`
	Clock   string        `json:"clock,omitempty"`
	Checks  []CheckResult `json:"checks"`
}

// Monitor evaluates a rule set over flight-recorder dumps, optionally
// mirroring the verdict into a gauge.
type Monitor struct {
	mu    sync.Mutex
	rules []Rule
	gauge *Gauge
}

// NewMonitor builds a monitor over the given rules (DefaultRules when
// empty).
func NewMonitor(rules ...Rule) *Monitor {
	if len(rules) == 0 {
		rules = DefaultRules()
	}
	return &Monitor{rules: append([]Rule(nil), rules...)}
}

// SetGauge mirrors each Evaluate verdict (0/1/2) into g.
func (m *Monitor) SetGauge(g *Gauge) {
	m.mu.Lock()
	m.gauge = g
	m.mu.Unlock()
}

// Evaluate runs every rule over the dump and returns the folded
// verdict.
func (m *Monitor) Evaluate(d *Dump) Health {
	m.mu.Lock()
	rules := m.rules
	gauge := m.gauge
	m.mu.Unlock()

	idx := d.Index()
	h := Health{Samples: d.Samples, Clock: d.Clock}
	worst := SevOK
	for _, r := range rules {
		res := r.Check(idx)
		h.Checks = append(h.Checks, res)
		if res.Firing && r.Severity > worst {
			worst = r.Severity
		}
	}
	h.Status = worst.String()
	h.Code = int(worst)
	if gauge != nil {
		gauge.SetInt(int64(worst))
	}
	return h
}

// healthWindow is the default look-back for windowed rules, in
// samples.
const healthWindow = 8

// minRateSwaps is the minimum swap traffic inside the look-back window
// before the fallback-rate rules activate: a handful of stray CPU
// fallbacks on an otherwise idle tail is not an accelerator outage.
const minRateSwaps = 16

// DefaultRules is the stock rule table (DESIGN §7b): the failure modes
// of the offload path that are only visible as trajectories.
func DefaultRules() []Rule {
	swapsW := AddExpr(
		SeriesExpr("xfm_fallbacks_total", AggSum, healthWindow),
		SeriesExpr("xfm_offloads_total", AggSum, healthWindow))
	fallbackRateW := RatioExpr(SeriesExpr("xfm_fallbacks_total", AggSum, healthWindow), swapsW)
	// Positive only when the window carried real swap volume.
	rateGuard := AddExpr(swapsW, ConstExpr(-minRateSwaps))
	slotUtilW := RatioExpr(
		AddExpr(
			SeriesExpr("nma_conditional_accesses_total", AggSum, healthWindow),
			SeriesExpr("nma_random_accesses_total", AggSum, healthWindow)),
		SeriesExpr("nma_slots_offered_total", AggSum, healthWindow))
	promotion := SeriesExpr("sfm_promotion_rate", AggLast, 1)
	return []Rule{
		{
			Name: "fallback-rate-spike", Severity: SevDegraded,
			Help:  "Windowed CPU-fallback share of swap traffic; the NMA is shedding load (§6 back-pressure).",
			Value: fallbackRateW, Above: true, Threshold: 0.5,
			Guard: rateGuard,
		},
		{
			Name: "fallback-rate-saturated", Severity: SevCritical,
			Help:  "Nearly all swaps run on the CPU: the accelerator path is effectively down.",
			Value: fallbackRateW, Above: true, Threshold: 0.9,
			Guard: rateGuard,
		},
		{
			Name: "slot-utilization-collapse", Severity: SevDegraded,
			Help: "Offered refresh-window access slots go unused while the request queue holds work " +
				"(RogueRFM-style refresh pathology or a scheduling bug).",
			Value: slotUtilW, Above: false, Threshold: 0.02,
			Guard: SeriesExpr("nma_queue_depth", AggMax, healthWindow),
		},
		{
			Name: "queue-stall-storm", Severity: SevDegraded,
			Help:  "Memory-controller transaction-queue rejections in the window; back-pressure is reaching the core.",
			Value: SeriesExpr("memctrl_queue_full_stalls_total", AggSum, healthWindow), Above: true, Threshold: 1000,
		},
		{
			Name: "ecc-uncorrectable", Severity: SevCritical,
			Help:  "Any uncorrectable side-band ECC word in the recording is data loss (§4.1).",
			Value: SeriesExpr("xfm_ecc_uncorrectable_total", AggSum, 0), Above: true, Threshold: 0,
		},
		{
			Name: "promotion-rate-low", Severity: SevDegraded,
			Help: "Observed promotion rate fell below the validated band (§2.1): far memory is " +
				"over-provisioned relative to the cost model's operating point.",
			Value: promotion, Above: false, Threshold: 0.30,
			Guard: promotion,
		},
		{
			Name: "promotion-rate-high", Severity: SevDegraded,
			Help: "Observed promotion rate above the validated band (§2.1): the working set thrashes " +
				"through far memory and decompression is on the access path.",
			Value: promotion, Above: true, Threshold: 0.90,
		},
	}
}

var (
	defaultMonitorOnce sync.Once
	defaultMonitor     *Monitor
)

// DefaultMonitor returns the process-wide monitor over DefaultRules,
// mirroring verdicts into the telemetry_health_status gauge
// (0 OK, 1 DEGRADED, 2 CRITICAL).
func DefaultMonitor() *Monitor {
	defaultMonitorOnce.Do(func() {
		defaultMonitor = NewMonitor()
		defaultMonitor.SetGauge(healthStatus)
	})
	return defaultMonitor
}
