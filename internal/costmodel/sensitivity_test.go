package costmodel

import "testing"

func base100() Params {
	p := DefaultParams()
	p.PromotionRate = 1.0
	return p
}

func TestSensitivityRowsComplete(t *testing.T) {
	rows := SensitivityOf(base100(), 0.2, 50)
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	// Sorted by decreasing spread.
	for i := 1; i < len(rows); i++ {
		if rows[i].Spread > rows[i-1].Spread {
			t.Fatal("rows not sorted by spread")
		}
	}
	// The memory price must be among the influential parameters: it
	// sets the DFM upfront cost the SFM has to catch up to.
	foundPrice := false
	for i, r := range rows {
		if r.Param == "DRAMCostPerGB" {
			foundPrice = true
			if i > 3 {
				t.Errorf("DRAMCostPerGB ranked %d; expected among the top drivers", i)
			}
		}
	}
	if !foundPrice {
		t.Error("DRAMCostPerGB missing")
	}
}

// TestSensitivityConclusion: the *qualitative* conclusion — SFM starts
// cheaper and a break-even exists at a multi-month-to-decades horizon —
// survives ±20% on every fitted constant. The *magnitude* does not: the
// sweep shows the break-even year moving from <1 to ~20 years across
// single ±20% perturbations of the unprinted constants (memory price,
// CCPerGB), which is why EXPERIMENTS.md treats the paper's 8.5-year
// figure as illustrative rather than fundamental.
func TestSensitivityConclusion(t *testing.T) {
	rows := SensitivityOf(base100(), 0.2, 60)
	for _, r := range rows {
		if !r.LowOK || !r.HighOK {
			t.Errorf("%s: no break-even within the horizon at ±20%%", r.Param)
			continue
		}
		for _, y := range []float64{r.LowYears, r.HighYears} {
			if y < 0.1 || y > 45 {
				t.Errorf("%s: break-even at %.1f years, outside [0.1, 45]", r.Param, y)
			}
		}
	}
	if rows[0].Spread < 10 {
		t.Errorf("top sensitivity spread = %.1f years; expected the model to be "+
			"strongly parameter-sensitive", rows[0].Spread)
	}
}

func TestSensitivityDirections(t *testing.T) {
	rows := SensitivityOf(base100(), 0.2, 50)
	get := func(name string) SensitivityRow {
		for _, r := range rows {
			if r.Param == name {
				return r
			}
		}
		t.Fatalf("row %s missing", name)
		return SensitivityRow{}
	}
	// Cheaper DRAM ⇒ smaller DFM head start ⇒ earlier break-even.
	price := get("DRAMCostPerGB")
	if price.LowOK && price.HighOK && price.LowYears >= price.HighYears {
		t.Errorf("cheaper DRAM should break even sooner: low %.1f vs high %.1f",
			price.LowYears, price.HighYears)
	}
	// A pricier CPU raises SFM's upfront cost ⇒ earlier break-even.
	cpu := get("CPUPurchasePrice")
	if cpu.LowOK && cpu.HighOK && cpu.HighYears >= cpu.LowYears {
		t.Errorf("pricier CPU should break even sooner: high %.1f vs low %.1f",
			cpu.HighYears, cpu.LowYears)
	}
}
