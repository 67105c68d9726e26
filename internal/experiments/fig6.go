package experiments

import (
	"fmt"

	"xfm/internal/dram"
	"xfm/internal/stats"
)

// Fig6Result holds the conditional-access timing derivation.
type Fig6Result struct {
	// Latency110ns is the derived single-page conditional read latency
	// at DDR5-3200 (paper: ~110 ns).
	Latency110ns float64
	// MaxAccesses maps device name to the derived max conditional accesses
	// per tRFC (paper: 4/3/2 for 32/16/8 Gb).
	MaxAccesses map[string]int
}

// Fig6 derives the Fig. 6b conditional-access timing from the DRAM
// timing parameters alone: the 110 ns single-page latency and the
// per-device access budgets the scheduler uses.
func Fig6() *Fig6Result {
	tm := dram.DDR5_3200()
	res := &Fig6Result{
		Latency110ns: float64(dram.ConditionalReadLatency(tm, 4096)) / float64(dram.Nanosecond),
		MaxAccesses:  map[string]int{},
	}
	for _, dev := range dram.Table1Devices() {
		res.MaxAccesses[dev.Name] = dram.DeriveConditionalBudget(dev)
	}
	return res
}

// Table renders the derivation.
func (r *Fig6Result) Table() *stats.Table {
	t := stats.NewTable("Fig. 6 — conditional access timing, derived from DDR5-3200 parameters",
		"quantity", "derived", "paper")
	t.AddRow("4 KiB conditional read latency",
		fmt.Sprintf("%.1f ns", r.Latency110ns), "~110 ns")
	for _, name := range []string{"8Gb", "16Gb", "32Gb"} {
		want := map[string]string{"8Gb": "2", "16Gb": "3", "32Gb": "4"}[name]
		t.AddRow(fmt.Sprintf("max conditional accesses/tRFC (%s)", name),
			fmt.Sprintf("%d", r.MaxAccesses[name]), want)
	}
	ab, sb := dram.CompareRefreshModes(dram.Device32Gb, dram.DDR5_3200())
	t.AddRow("", "", "")
	t.AddRow("all-bank refresh busy per retention",
		fmt.Sprintf("%.2f ms", float64(ab.RefreshBusyPs)/float64(dram.Millisecond)), "~3.4 ms (8192×410ns)")
	t.AddRow("same-bank refresh busy per retention",
		fmt.Sprintf("%.2f ms", float64(sb.RefreshBusyPs)/float64(dram.Millisecond)), "higher (less efficient, §2.2)")
	return t
}
