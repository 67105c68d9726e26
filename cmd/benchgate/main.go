// Command benchgate is CI's performance gate. It compares two
// directories of `go run ./benchmark -out FILE` reports, A from the
// merge-base's benchmark (a push's first parent's) and B from the
// change's, made in alternation so the box's drift falls on both sides.
//
//	benchgate A-DIR B-DIR    (from the repository root: it reads BENCHMARK.json)
//
// Only untraced runs are read. Per workload, run i of A is paired with
// run i of B (files in name order, a file's runs in order), and both
// sides must hold the same k ≥ 9 runs. A row fails when an end-to-end
// metric of BENCHMARK.json, oriented by its "better", is more than 20 %
// worse in the median pair and B loses at least ⌈0.8k⌉ pairs; when an
// exact metric does not read the same in all 2k runs; or when a run has
// failed > 0. A workload or metric A lacks is printed, not gated. Exit
// status: 0 pass, 1 a failing row, 2 sides that cannot be compared.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	minPairs = 9
	// maxWorse is how much worse than A, as a share of A, B may be in
	// the median pair.
	maxWorse = 0.20
)

// exactUnits are the units of what an untraced run reads from counts
// and simulated time: a metric with one, outside host., repeats exactly.
// (Traced runs add two timed ratios, compress.busy_share and
// sfm.parallel_efficiency; the gate reads no traced run.)
var exactUnits = map[string]bool{"count": true, "ratio": true, "B": true, "tREFI": true, "cycles": true}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func (m metricSpec) exact() bool {
	return exactUnits[m.Unit] && !strings.HasPrefix(m.Name, "host.")
}

// spec is what benchgate reads of BENCHMARK.json.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// run is what benchgate reads of one run of a report.
type run struct {
	Workload string             `json:"workload"`
	Trace    bool               `json:"trace"`
	Failed   int64              `json:"failed"`
	Metrics  map[string]float64 `json:"metrics"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// loadRuns returns the untraced runs of the reports in dir by workload.
func loadRuns(dir string) (map[string][]run, error) {
	paths, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	byWorkload := map[string][]run{}
	for _, p := range paths {
		var rep struct{ Runs []run }
		if err := readJSON(p, &rep); err != nil {
			return nil, err
		}
		for _, r := range rep.Runs {
			if !r.Trace {
				byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
			}
		}
	}
	if len(byWorkload) == 0 {
		return nil, fmt.Errorf("%s: no untraced runs", dir)
	}
	return byWorkload, nil
}

// values returns name's value in every run that has it.
func values(rs []run, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// gate prints a row per workload and end-to-end metric, a line per
// workload for its exact metrics and a FAIL line per failing row, and
// reports whether every row passed. An error means the sides cannot be
// compared.
func gate(w io.Writer, s spec, a, b map[string][]run) (bool, error) {
	var names []string
	for wl := range b {
		names = append(names, wl)
	}
	for wl := range a {
		if b[wl] == nil {
			return false, fmt.Errorf("%s: %d runs in A, none in B", wl, len(a[wl]))
		}
	}
	sort.Strings(names)
	ok := true
	fail := func(format string, args ...any) {
		fmt.Fprintf(w, "FAIL "+format+"\n", args...)
		ok = false
	}
	fmt.Fprintf(w, "%-14s %-16s %12s %12s %8s %6s\n", "workload", "metric", "median A", "median B", "pair", "lost")
	for _, wl := range names {
		ra, rb := a[wl], b[wl]
		for side, rs := range [][]run{ra, rb} {
			for i, r := range rs {
				if r.Failed > 0 {
					fail("%s: run %d of %c failed %d ops", wl, i+1, 'A'+side, r.Failed)
				}
			}
		}
		k := len(ra)
		switch {
		case k == 0:
			fmt.Fprintf(w, "%-14s new in B (%d runs), not gated\n", wl, len(rb))
			continue
		case len(rb) != k:
			return false, fmt.Errorf("%s: %d runs in A, %d in B", wl, k, len(rb))
		case k < minPairs:
			return false, fmt.Errorf("%s: %d pairs, want at least %d", wl, k, minPairs)
		}
		// paired returns m's values when A has it in every run, and so
		// must B.
		paired := func(m metricSpec) (va, vb []float64, gated bool) {
			va, vb = values(ra, m.Name), values(rb, m.Name)
			switch {
			case len(va) == 0 && len(vb) > 0:
				fmt.Fprintf(w, "%-14s %-16s new in B, not gated\n", wl, m.Name)
			case len(va) == 0:
			case len(va) < k || len(vb) < k:
				fail("%s %s: in %d runs of A and %d of B, want %d", wl, m.Name, len(va), len(vb), k)
			default:
				return va, vb, true
			}
			return nil, nil, false
		}
		for _, m := range s.EndToEnd {
			va, vb, gated := paired(m)
			if !gated {
				continue
			}
			worse := make([]float64, k) // B's loss against A, as a share of A
			lost := 0
			for i := range worse {
				if va[i] != vb[i] {
					worse[i] = (vb[i] - va[i]) / va[i]
				}
				if m.Better == "higher" {
					worse[i] = -worse[i]
				}
				if worse[i] > 0 {
					lost++
				}
			}
			mw := median(worse)
			fmt.Fprintf(w, "%-14s %-16s %12.6g %12.6g %+7.1f%% %3d/%d\n",
				wl, m.Name, median(va), median(vb), mw*100, lost, k)
			if mw > maxWorse && lost >= (4*k+4)/5 { // B lost ⌈0.8k⌉ pairs
				fail("%s %s: %.1f %% worse in the median pair, B lost %d of %d pairs", wl, m.Name, mw*100, lost, k)
			}
		}
		same := 0
		for _, m := range s.PerLayer {
			if !m.exact() {
				continue
			}
			va, vb, gated := paired(m)
			if !gated {
				continue
			}
			changed := false
			for i := range va {
				changed = changed || va[i] != va[0] || vb[i] != va[0]
			}
			if changed {
				fail("%s %s: exact metric changed: A %v, B %v", wl, m.Name, va, vb)
			} else {
				same++
			}
		}
		fmt.Fprintf(w, "%-14s %d exact metrics the same in all %d runs\n", wl, same, 2*k)
	}
	return ok, nil
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchgate A-DIR B-DIR (from the repository root)")
		os.Exit(2)
	}
	var s spec
	err := readJSON("BENCHMARK.json", &s)
	var a, b map[string][]run
	if err == nil {
		a, err = loadRuns(os.Args[1])
	}
	if err == nil {
		b, err = loadRuns(os.Args[2])
	}
	ok := false
	if err == nil {
		ok, err = gate(os.Stdout, s, a, b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if !ok {
		fmt.Println("benchgate: FAIL")
		os.Exit(1)
	}
	fmt.Println("benchgate: pass")
}
