package telemetry

// The health verdict telemetryck prints for a recording (DESIGN §7b): two
// rules over the flight recorder's series, each kept because a
// recording CI makes trips it, folded into one OK/DEGRADED/CRITICAL
// status.

// severity orders health outcomes; the overall status is the worst
// firing rule's severity.
type severity int

const (
	sevOK severity = iota
	sevDegraded
	sevCritical
)

func (s severity) String() string {
	switch s {
	case sevDegraded:
		return "DEGRADED"
	case sevCritical:
		return "CRITICAL"
	default:
		return "OK"
	}
}

// SeriesIndex is the evaluation input: series name → points, oldest
// first (see Dump.Index).
type SeriesIndex map[string][]Point

// healthWindow is the look-back of the windowed rule, in samples.
const healthWindow = 8

// rule is one health check: it fires at sev when value compares above
// threshold (below it when above is false). value reports ok=false
// when a series it reads is missing, a denominator is zero or its
// guard is off, and the rule then stays inactive instead of firing.
type rule struct {
	name      string
	sev       severity
	threshold float64
	above     bool
	value     func(SeriesIndex) (float64, bool)
}

// rules is the table Evaluate folds.
var rules = []rule{
	{name: "slot-utilization-collapse", sev: sevDegraded, threshold: 0.02, value: slotUtilization},
	{name: "ecc-uncorrectable", sev: sevCritical, threshold: 0, above: true, value: eccUncorrectable},
}

// slotUtilization is the share of offered refresh-window access slots
// the NMA used over the look-back, guarded on the queue having held
// work in it: unused slots with nothing queued are idleness, with work
// queued they are a refresh pathology (RogueRFM) or a scheduling bug.
func slotUtilization(idx SeriesIndex) (float64, bool) {
	if _, depth, ok := window(idx, "nma_queue_depth", healthWindow); !ok || depth <= 0 {
		return 0, false
	}
	cond, _, okCond := window(idx, "nma_conditional_accesses_total", healthWindow)
	random, _, okRandom := window(idx, "nma_random_accesses_total", healthWindow)
	offered, _, okOffered := window(idx, "nma_slots_offered_total", healthWindow)
	if !okCond || !okRandom || !okOffered || offered == 0 {
		return 0, false
	}
	return (cond + random) / offered, true
}

// eccUncorrectable counts uncorrectable side-band ECC words over the
// whole recording: any one of them is data loss (§4.1).
func eccUncorrectable(idx SeriesIndex) (float64, bool) {
	sum, _, ok := window(idx, "xfm_ecc_uncorrectable_total", 0)
	return sum, ok
}

// window folds the last n points of the named series (all of them when
// n ≤ 0) into their sum and their peak; ok is false when the series is
// missing or empty.
func window(idx SeriesIndex, name string, n int) (sum, peak float64, ok bool) {
	pts := idx[name]
	if len(pts) == 0 {
		return 0, 0, false
	}
	if n > 0 && len(pts) > n {
		pts = pts[len(pts)-n:]
	}
	peak = pts[0].V
	for _, p := range pts {
		sum += p.V
		peak = max(peak, p.V)
	}
	return sum, peak, true
}

// CheckResult is one rule's evaluation.
type CheckResult struct {
	Rule, Severity   string
	Active, Firing   bool
	Value, Threshold float64
}

// check evaluates the rule against the index.
func (r rule) check(idx SeriesIndex) CheckResult {
	res := CheckResult{Rule: r.name, Severity: r.sev.String(), Threshold: r.threshold}
	v, ok := r.value(idx)
	if !ok {
		return res
	}
	res.Active, res.Value = true, v
	if r.above {
		res.Firing = v > r.threshold
	} else {
		res.Firing = v < r.threshold
	}
	return res
}

// Health is the verdict: the worst firing severity plus every rule's
// evaluation.
type Health struct {
	Status string
	Code   int // 0 OK, 1 DEGRADED, 2 CRITICAL
	Checks []CheckResult
}

// Evaluate runs every rule over the dump and folds the verdict.
func Evaluate(d *Dump) Health {
	idx := d.Index()
	var h Health
	worst := sevOK
	for _, r := range rules {
		res := r.check(idx)
		h.Checks = append(h.Checks, res)
		if res.Firing && r.sev > worst {
			worst = r.sev
		}
	}
	h.Status, h.Code = worst.String(), int(worst)
	return h
}
