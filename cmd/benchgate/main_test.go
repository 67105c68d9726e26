package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var testSpec = spec{
	EndToEnd: []metricSpec{
		{Name: "pages_per_s", Unit: "1/s", Better: "higher"},
		{Name: "swapin_p50_us", Unit: "us", Better: "lower"},
	},
	PerLayer: []metricSpec{
		{Name: "sfm.incompressible_pages", Unit: "count", Better: "lower"},
		{Name: "corpus.gen_ms", Unit: "ms", Better: "lower"},
	},
}

// side is one directory's runs of one workload, before they are written.
type side []run

// runs makes k runs whose timed metrics wander by a few percent from run
// to run, the same on both sides unless a case changes one.
func runs(k int) side {
	s := make(side, k)
	for i := range s {
		jitter := 1 + float64(i%3-1)*0.03
		s[i] = run{Workload: "cpu_batch", Metrics: map[string]float64{
			"pages_per_s":              20000 * jitter,
			"swapin_p50_us":            2500 * jitter,
			"sfm.incompressible_pages": 256,
			"corpus.gen_ms":            40 * jitter,
		}}
	}
	return s
}

// scale multiplies metric name by f in the runs whose index is in idx
// (every run when idx is empty).
func (s side) scale(name string, f float64, idx ...int) side {
	for i := range s {
		if len(idx) == 0 || slices.Contains(idx, i) {
			s[i].Metrics[name] *= f
		}
	}
	return s
}

// write puts each run in a report file of its own, named as CI names them.
func (s side) write(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for i, r := range s {
		data, err := json.Marshal(map[string][]run{"runs": {r}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", r.Workload, i+1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// judge writes both sides, loads them back and gates them.
func judge(t *testing.T, a, b side) (bool, string, error) {
	t.Helper()
	ra, err := loadRuns(a.write(t))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := loadRuns(b.write(t))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	ok, err := gate(&out, testSpec, ra, rb)
	return ok, out.String(), err
}

func TestGateVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    side
		pass bool
	}{
		{"A/A", runs(9), true},
		{"21% worse, 8 of 9 lost", runs(9).scale("swapin_p50_us", 1.21).scale("swapin_p50_us", 0.9/1.21, 4), false},
		{"21% worse, 7 of 9 lost", runs(9).scale("swapin_p50_us", 1.21).scale("swapin_p50_us", 0.9/1.21, 4, 7), true},
		{"19% worse, 9 of 9 lost", runs(9).scale("swapin_p50_us", 1.19), true},
		{"higher-is-better 21% lower", runs(9).scale("pages_per_s", 0.79), false},
		{"higher-is-better 30% higher", runs(9).scale("pages_per_s", 1.3), true},
		{"lower-is-better 30% higher", runs(9).scale("swapin_p50_us", 1.3), false},
		{"lower-is-better 30% lower", runs(9).scale("swapin_p50_us", 0.7), true},
		{"timed per-layer metric 2x", runs(9).scale("corpus.gen_ms", 2), true},
		{"exact metric off in one run", runs(9).scale("sfm.incompressible_pages", 257.0/256, 5), false},
	} {
		ok, out, err := judge(t, runs(9), tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok != tc.pass {
			t.Errorf("%s: pass = %v, want %v\n%s", tc.name, ok, tc.pass, out)
		}
	}
}

func TestGateFailsOnFailedOps(t *testing.T) {
	for _, onA := range []bool{false, true} {
		a, b := runs(9), runs(9)
		bad := b
		if onA {
			bad = a
		}
		bad[3].Failed = 1
		ok, out, err := judge(t, a, b)
		if err != nil || ok || !strings.Contains(out, "failed 1 ops") {
			t.Errorf("failed op on A=%v: pass = %v, err = %v\n%s", onA, ok, err, out)
		}
	}
}

func TestGateRejectsUnpairedSides(t *testing.T) {
	other := runs(9)
	for i := range other {
		other[i].Workload = "xfm_batch"
	}
	for _, tc := range []struct {
		name string
		a, b side
	}{
		{"unequal k", runs(9), runs(10)},
		{"k below 9", runs(8), runs(8)},
		{"workload absent from B", append(runs(9), other...), runs(9)},
	} {
		if _, out, err := judge(t, tc.a, tc.b); err == nil {
			t.Errorf("%s: no error\n%s", tc.name, out)
		}
	}
	if _, err := loadRuns(t.TempDir()); err == nil {
		t.Error("an empty directory loaded")
	}
}

func TestGatePrintsWhatOnlyBHas(t *testing.T) {
	a, b := runs(9), runs(9)
	for i := range a {
		delete(a[i].Metrics, "sfm.incompressible_pages")
		delete(a[i].Metrics, "swapin_p50_us")
	}
	// B's value of a metric A lacks does not repeat: it is not gated.
	b.scale("sfm.incompressible_pages", 2, 0).scale("swapin_p50_us", 3)
	other := runs(9)
	for i := range other {
		other[i].Workload = "xfm_batch"
	}
	ok, out, err := judge(t, a, append(b, other...))
	if err != nil || !ok {
		t.Fatalf("pass = %v, err = %v\n%s", ok, err, out)
	}
	for _, want := range []string{
		"sfm.incompressible_pages new in B, not gated",
		"swapin_p50_us    new in B, not gated",
		"xfm_batch      new in B (9 runs), not gated",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	// A metric the change dropped is a failing row.
	ok, out, _ = judge(t, b[:9], a)
	if ok || !strings.Contains(out, "in 9 runs of A and 0 of B") {
		t.Errorf("dropped metric passed:\n%s", out)
	}
}

// TestExactMatchesReadmeKinds pins the unit rule against the "kind"
// column of benchmark/README.md's per-layer table: every metric
// BENCHMARK.json names is exact by the rule exactly when the glossary
// calls it exact, but for the two timed ratios only traced runs produce.
func TestExactMatchesReadmeKinds(t *testing.T) {
	var s spec
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &s); err != nil {
		t.Fatal(err)
	}
	kinds := readmeKinds(t, filepath.Join("..", "..", "benchmark", "README.md"))
	tracedOnly := map[string]bool{"compress.busy_share": true, "sfm.parallel_efficiency": true}
	for _, m := range s.EndToEnd {
		if m.exact() {
			t.Errorf("end-to-end %s classed exact", m.Name)
		}
	}
	for _, m := range s.PerLayer {
		kind, ok := kinds[m.Name]
		if !ok {
			t.Errorf("%s: no kind in benchmark/README.md", m.Name)
			continue
		}
		if got, want := m.exact(), kind == "exact"; (got != want) != tracedOnly[m.Name] {
			t.Errorf("%s (%s, kind %s): exact = %v", m.Name, m.Unit, kind, got)
		}
	}
}

// readmeKinds maps each metric of README.md's per-layer table to its
// kind. A cell may list several names (".x" continues the first name's
// layer) and several kinds, one per name, or one for all.
func readmeKinds(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kinds := map[string]string{}
	in := false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			in = line == "## Per-layer metrics"
		}
		cells := strings.Split(line, "|")
		if !in || len(cells) < 5 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		var names []string
		for _, n := range strings.Split(cells[1], ",") {
			n = strings.Trim(strings.TrimSpace(n), "`")
			if strings.HasPrefix(n, ".") {
				n = names[0][:strings.Index(names[0], ".")] + n
			}
			names = append(names, n)
		}
		ks := strings.Split(cells[3], ",")
		for i, n := range names {
			k := ks[0]
			if len(ks) == len(names) {
				k = ks[i]
			}
			kinds[n] = strings.Fields(k)[0]
		}
	}
	if len(kinds) == 0 {
		t.Fatalf("%s: no per-layer table", path)
	}
	return kinds
}
