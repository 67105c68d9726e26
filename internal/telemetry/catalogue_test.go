package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// histSeriesSuffixes are the five windowed series the sampler derives
// from one histogram row.
var histSeriesSuffixes = []string{"_count", "_sum", "_p50", "_p95", "_p99"}

// TestDefaultRulesNameSampledSeries: a health rule reads the flight
// recorder, so every series it names must come from a catalogue row —
// a typo here would read "(no data)" forever instead of failing. A dump
// holding every row's series at a positive value must leave every rule
// active.
func TestDefaultRulesNameSampledSeries(t *testing.T) {
	series := map[string][]float64{}
	for _, r := range catalogue {
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
			t.Errorf("rule %s reads a series no catalogue row records", c.Rule)
		}
	}
}

// TestRequiredRowsAreSampled: telemetryck requires each required row
// of a CI recording by its source row, so one sample of a recorder over
// the catalogue must carry a series for every required row.
func TestRequiredRowsAreSampled(t *testing.T) {
	required := RequiredSeries()
	if len(required) == 0 {
		t.Fatal("the catalogue marks nothing as required: the CI gate would be vacuous")
	}
	s := NewSampler(0)
	s.Reset()
	s.FinalSample()
	recorded := map[string]bool{}
	for _, sr := range s.Dump().Series {
		if len(sr.Points) > 0 {
			recorded[sr.Metric] = true
		}
	}
	for _, name := range required {
		if !recorded[name] {
			t.Errorf("%s is required of CI recordings but the default recorder samples no series from it", name)
		}
	}
}

// designTable renders the DESIGN §7 metric table from the catalogue.
func designTable() string {
	var b strings.Builder
	b.WriteString("| Metric | Owner | Kind | Required | Meaning |\n|---|---|---|---|---|\n")
	for _, r := range catalogue {
		kind := r.kind
		if r.kind == kindGaugeFunc {
			kind = "gauge (derived)"
		}
		req := ""
		if r.attrs&required != 0 {
			req = "yes"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", r.name, r.layer, kind, req, r.help)
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
			declare(row{name: name, kind: kindCounter, help: "help", layer: layerXFM, ctr: &Counter{}})
		}()
	}
}
