package dram

import "testing"

func TestConditionalReadLatencyMatchesPaper(t *testing.T) {
	// §5 / Fig. 6b: "it would take 110ns to send all the data out of
	// the chip to the NMA (tRCD + tCL + 32 × tBURST)".
	tm := DDR5_3200()
	got := ConditionalReadLatency(tm, 4096)
	if got < 105*Nanosecond || got > 115*Nanosecond {
		t.Errorf("conditional 4 KiB read latency = %.1f ns, paper: ~110",
			float64(got)/float64(Nanosecond))
	}
}

func TestMaxConditionalAccessesMatchesTable(t *testing.T) {
	// §5: "the maximum number of 4KB conditional accesses are 4, 3,
	// and 2 for 32Gb, 16Gb, and 8Gb chips."
	want := map[string]int{"8Gb": 2, "16Gb": 3, "32Gb": 4}
	for _, dev := range Table1Devices() {
		if got := DeriveConditionalBudget(dev); got != want[dev.Name] {
			t.Errorf("%s: derived budget = %d, want %d", dev.Name, got, want[dev.Name])
		}
	}
}

func TestMaxConditionalAccessesEdgeCases(t *testing.T) {
	tm := DDR5_3200()
	if got := MaxConditionalAccesses(tm, 50*Nanosecond, 4096); got != 0 {
		t.Errorf("window shorter than one access yielded %d", got)
	}
	// A huge window admits many accesses, monotonically.
	prev := 0
	for _, trfc := range []Ps{200 * Nanosecond, 400 * Nanosecond, 800 * Nanosecond} {
		got := MaxConditionalAccesses(tm, trfc, 4096)
		if got < prev {
			t.Errorf("budget not monotone in tRFC: %d after %d", got, prev)
		}
		prev = got
	}
}
