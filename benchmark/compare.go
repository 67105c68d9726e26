package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// values collects a metric's value from every run of the workload in
// the report. End-to-end metrics are only ever taken from untraced
// runs; per-layer metrics from traced runs when the file has any for
// the workload, else from untraced ones (which carry the counts).
func (r *report) values(workload string, d metricDef, e2e bool) []float64 {
	pick := func(trace bool) []float64 {
		var out []float64
		for _, run := range r.Runs {
			if run.Workload != workload || run.Trace != trace {
				continue
			}
			if v, ok := run.Metrics[d.Name]; ok {
				out = append(out, v)
			}
		}
		return out
	}
	if e2e {
		return pick(false)
	}
	if vals := pick(true); len(vals) > 0 {
		return vals
	}
	return pick(false)
}

// spread is the width of a set of runs as a share of their median: the
// full range, since a file holds only a handful of runs.
func spread(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return ratio(s[len(s)-1]-s[0], math.Abs(medianFloat(s)))
}

// verdict compares a metric's runs in the reference file (a) and the
// candidate file (b). An exact metric must read the same in every run
// of both files. A host-time metric regresses when b's median is worse
// than a's by more than the bound; where either file's own spread is
// wider than the bound the comparison cannot tell a change from noise
// and is "unresolved" — unless every run of b is better than every run
// of a.
func verdict(d metricDef, a, b []float64) (text string, regressed bool) {
	ma, mb := medianFloat(a), medianFloat(b)
	if d.Kind == exact {
		for _, v := range append(append([]float64(nil), a...), b...) {
			if v != ma {
				return "CHANGED", true
			}
		}
		return "same", false
	}
	if d.Kind == info || d.Bound == 0 {
		return "-", false
	}
	worse := ratio(mb-ma, math.Abs(ma))
	if d.Better == "higher" {
		worse = -worse
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
		sort.Float64s(sa)
		sort.Float64s(sb)
		allBetter := sb[len(sb)-1] < sa[0]
		if d.Better == "higher" {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if allBetter {
			return "better", false
		}
		return "unresolved", false
	}
	switch {
	case worse > d.Bound:
		return "REGRESSION", true
	case worse < -d.Bound:
		return "better", false
	}
	return "within", false
}

// compareFiles prints one row per workload per metric present in both
// files and reports whether any of them regressed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	if a.Env != b.Env {
		fmt.Fprintf(w, "warning: environments differ: %+v vs %+v\n", a.Env, b.Env)
	}
	fmt.Fprintf(w, "%-14s %-34s %14s %14s %8s %8s %8s %-7s %s\n",
		"workload", "metric", "median A", "median B", "change", "spreadA", "spreadB", "bound", "verdict")
	regressed := false
	for _, wl := range workloads {
		for li, list := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range list {
				va, vb := a.values(wl.name, d, li == 0), b.values(wl.name, d, li == 0)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				text, bad := verdict(d, va, vb)
				regressed = regressed || bad
				ma, mb := medianFloat(va), medianFloat(vb)
				fmt.Fprintf(w, "%-14s %-34s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %-7s %s\n",
					wl.name, d.Name, ma, mb, ratio(mb-ma, math.Abs(ma))*100,
					spread(va)*100, spread(vb)*100, d.boundText(), text)
			}
		}
	}
	return regressed, nil
}
