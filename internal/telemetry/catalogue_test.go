package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// histSeriesSuffixes are the five windowed series the sampler derives
// from one histogram family.
var histSeriesSuffixes = []string{"_count", "_sum", "_p50", "_p95", "_p99"}

// TestDefaultRulesNameSampledSeries: a health rule reads the flight
// recorder, so every series it names must be a sampled catalogue row —
// a typo here would read "(no data)" forever instead of failing. A dump
// holding every sampled series at a positive value must leave every
// rule active.
func TestDefaultRulesNameSampledSeries(t *testing.T) {
	series := map[string][]float64{}
	for _, r := range catalogue {
		if r.attrs&sampled == 0 {
			continue
		}
		if r.kind != kindHistogram {
			series[r.name] = []float64{1}
			continue
		}
		// A histogram row is read through its five derived series.
		for _, suf := range histSeriesSuffixes {
			series[r.name+suf] = []float64{1}
		}
	}
	for _, c := range Evaluate(mkDump(series)).Checks {
		if !c.Active {
			t.Errorf("rule %s reads a series no sampled catalogue row records", c.Rule)
		}
	}
}

// TestRequiredRowsAreSampled: telemetryck can only find a required
// series in a recording if the default sampler records it, and the
// metrics CI requires are the ones its dashboards trend.
func TestRequiredRowsAreSampled(t *testing.T) {
	if len(RequiredMetrics()) == 0 || len(RequiredSeries()) == 0 {
		t.Fatal("the catalogue marks nothing as required: the CI gates would be vacuous")
	}
	for _, r := range catalogue {
		if r.attrs&(requiredMetric|requiredSeries) != 0 && r.attrs&sampled == 0 {
			t.Errorf("%s is required of CI artifacts but not sampled", r.name)
		}
		if r.attrs&requiredSeries != 0 && r.kind == kindHistogram {
			t.Errorf("%s: a histogram records %v, never a series under its own name", r.name, histSeriesSuffixes)
		}
	}
}

// designTable renders the DESIGN §7 metric table from the catalogue.
func designTable() string {
	var b strings.Builder
	b.WriteString("| Metric | Owner | Kind | Read by | Meaning |\n|---|---|---|---|---|\n")
	for _, r := range catalogue {
		kind := r.kind
		if r.kind == kindGaugeFunc {
			kind = "gauge (derived)"
		}
		if r.labelKey != "" {
			kind += " by `" + r.labelKey + "`"
		}
		var readers []string
		for _, c := range []struct {
			a    attrs
			name string
		}{{sampled, "recorder"}, {requiredMetric, "`-require`"}, {requiredSeries, "`-require-series`"}} {
			if r.attrs&c.a != 0 {
				readers = append(readers, c.name)
			}
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", r.name, r.layer, kind, strings.Join(readers, ", "), r.help)
	}
	return b.String()
}

// TestDesignCatalogueTable keeps DESIGN §7 a rendering of catalogue.go:
// the table between the two markers must be exactly what designTable
// prints. On a mismatch the expected table is printed, so the fix is a
// paste.
func TestDesignCatalogueTable(t *testing.T) {
	const begin, end = "<!-- metric-catalogue:begin -->\n", "<!-- metric-catalogue:end -->"
	data, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(data), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("DESIGN.md lacks the %q … %q markers", strings.TrimSpace(begin), end)
	}
	if want := designTable(); got != want {
		t.Error("DESIGN.md §7 is not the table catalogue.go renders; paste what follows between the markers")
		fmt.Print(want) // stdout, so the lines arrive without the test log's indent
	}
}

// TestDeclareRejectsBadRows pins the two checks that moved out of
// xfmlint into the row constructor.
func TestDeclareRejectsBadRows(t *testing.T) {
	for why, name := range map[string]string{
		"off-convention name":  "Swaps",
		"unknown layer prefix": "gpu_ops_total",
		"duplicate":            catalogue[0].name,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: declare(%q) should panic", why, name)
				}
			}()
			declare(layerXFM, kindCounter, name, "help", "", nil, 0)
		}()
	}
}
