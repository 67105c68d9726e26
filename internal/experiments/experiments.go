// Package experiments regenerates every table and figure of the
// paper's evaluation (the per-experiment index in DESIGN.md): each
// Fig*/Table* function runs the corresponding models and simulators
// and returns both structured results and a rendered text table in
// the shape of the paper's figure.
//
// The Quick flag on parameterized experiments trades simulated time
// for speed so the full suite stays interactive; benchmarks and
// cmd/xfmbench run the full versions.
package experiments

import (
	"fmt"

	"xfm/internal/stats"
)

// Experiment names every reproducible artifact and the function that
// regenerates it.
type Experiment struct {
	ID    string // e.g. "fig11"
	Title string
	Run   func() *stats.Table
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig1", Title: "Fig. 1: SFM memory bandwidth utilization vs rank count",
			Run: func() *stats.Table { return Fig1().Table() }},
		{ID: "fig3", Title: "Fig. 3: DFM vs SFM cost and emissions over time",
			Run: func() *stats.Table { return Fig3().Table() }},
		{ID: "fig6", Title: "Fig. 6: conditional access timing derivation",
			Run: func() *stats.Table { return Fig6().Table() }},
		{ID: "fig8", Title: "Fig. 8: compression ratio in multi-channel mode",
			Run: func() *stats.Table { return Fig8(false).Table() }},
		{ID: "fig11", Title: "Fig. 11: SPEC × SFM co-run interference",
			Run: func() *stats.Table { return Fig11().Table() }},
		{ID: "fig11sim", Title: "Fig. 11 (cross-check): co-run on the DRAM timing simulator",
			Run: func() *stats.Table { return Fig11Sim().Table() }},
		{ID: "fig12", Title: "Fig. 12: CPU fallbacks vs SPM size and accesses/tRFC",
			Run: func() *stats.Table { return Fig12(false).Table() }},
		{ID: "table1", Title: "Table 1: DDR5 device configurations",
			Run: Table1},
		{ID: "table2", Title: "Table 2: FPGA resource utilization",
			Run: Table2},
		{ID: "table3", Title: "Table 3: power consumption breakdown",
			Run: Table3},
		{ID: "sec32", Title: "§3.2: SPEC vs (de)compression antagonists",
			Run: func() *stats.Table { return Sec32().Table() }},
		{ID: "energy", Title: "§8: NMA access energy saving from conditional accesses",
			Run: func() *stats.Table { return EnergySaving(false).Table() }},
		{ID: "capacity", Title: "§8: SFM capacity headroom under XFM",
			Run: func() *stats.Table { return Capacity(false).Table() }},
		{ID: "emulator", Title: "§7: full-stack emulation (web front-end over XFM)",
			Run: func() *stats.Table { return Emulator().Table() }},
		{ID: "ablations", Title: "Design ablations D1/D4",
			Run: func() *stats.Table { return Ablations().Table() }},
	}
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

func pct(f float64) string  { return fmt.Sprintf("%.1f%%", f*100) }
func gbps(f float64) string { return fmt.Sprintf("%.2f GB/s", f) }
